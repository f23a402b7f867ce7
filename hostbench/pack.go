package main

import (
	"fmt"
	"time"

	"altoos/internal/crashpoint"
	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/fsck"
	"altoos/internal/scavenge"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// pack is one Alto with no wire and no fleet. Its phases are sized from
// the experiments whose profile it stands for:
//
//   - files (E3's population): a Diablo31 filled to 60% with 24-page files,
//     each created, written and inserted through the file and directory
//     layers, then looked up and read back;
//   - raw disk: single operations and free-order chains straight at the
//     drive, to time Drive.Do and DoChain per operation;
//   - scavenge (E3): the Scavenger rebuilds that 60%-full pack, fsck
//     certifies it, and a seeded sample of files is re-read through the
//     rebuilt file system;
//   - aging (E4): twelve 128-page files grown in lockstep, one seeded file
//     scattered to random free sectors, the Scavenger, a compaction, fsck,
//     and every file re-read sequentially;
//   - crash sweep (E12): crashpoint.Explore of the journaled-insert and
//     compact workloads, clean and torn, plus seeded crash points re-run by
//     hand so the Scavenger and fsck can be timed per call.
//
// It is the control workload: an engine or ether change must leave it
// unchanged.
const (
	packFillPct     = 60 // E3: how full the files phase leaves the pack
	packFilePages   = 24 // E3: data pages per file
	packRescan      = 12 // files re-read after the scavenge
	packRawOps      = 500
	packChains      = 16
	packChainLen    = 32
	packWrecks      = 3  // seeded crash points re-run by hand per crash workload
	packAgedFiles   = 12 // E4
	packAgedPages   = 128
	packRecorderCap = 1 << 14
)

// packCrashWorkloads are the crashpoint workloads the sweep explores, the
// pair experiment E12 sweeps.
var packCrashWorkloads = []string{"journaled-insert", "compact"}

// packPhases name the phases in the order they run; a traced run reports
// the host time of each.
var packPhases = [...]string{"files", "raw", "scavenge", "aging", "crash"}

func init() { workloads["pack"] = &workload{name: "pack", setup: packSetup} }

type packRig struct {
	cfg   config
	rec   *trace.Recorder
	clk   *sim.Clock
	drv   *disk.Drive // the files, raw and scavenge phases
	fs    *file.FS
	root  *dir.Directory
	aged  *disk.Drive // the aging phase
	agedF *file.FS
	agedR *dir.Directory
	crash []crashpoint.Workload

	// Host time per call into each layer, and per phase, traced runs only.
	writePage, readPage, insert, lookup callStat
	do, chainOp                         callStat
	scavRun, compact, check             callStat
	explore                             callStat // per explored crash point
	phase                               [len(packPhases)]time.Duration

	scavN   int           // scavenge.Run calls
	scavSim time.Duration // simulated time they took
}

func packSetup(cfg config) (rig, error) {
	p := &packRig{cfg: cfg, clk: sim.NewClock()}
	if cfg.traced {
		p.rec = trace.New(packRecorderCap)
	}
	var err error
	if p.drv, p.fs, p.root, err = packFormat(1, p.clk, p.rec); err != nil {
		return nil, err
	}
	if p.aged, p.agedF, p.agedR, err = packFormat(2, p.clk, p.rec); err != nil {
		return nil, err
	}
	for _, name := range packCrashWorkloads {
		w, ok := crashpoint.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("crashpoint workload %q not registered", name)
		}
		p.crash = append(p.crash, w)
	}
	p.clk.Reset() // formatting is not part of the workload's timeline
	return p, nil
}

func packFormat(pack disk.Word, clk *sim.Clock, rec *trace.Recorder) (*disk.Drive, *file.FS, *dir.Directory, error) {
	d, err := disk.NewDrive(disk.Diablo31(), pack, clk)
	if err != nil {
		return nil, nil, nil, err
	}
	d.SetRecorder(rec)
	fs, err := file.Format(d)
	if err != nil {
		return nil, nil, nil, err
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, fs, root, nil
}

// timed runs f, adding its host time to s when the run is traced.
func (p *packRig) timed(s *callStat, f func() error) error {
	if !p.cfg.traced {
		return f()
	}
	t := time.Now()
	err := f()
	s.n++
	s.d += time.Since(t)
	return err
}

// packWord is word w of page pn of file i: seeded, non-periodic content.
func packWord(seed uint64, i, pn, w int) disk.Word {
	return disk.Word(mix(seed, uint64(i)<<20|uint64(pn)<<10|uint64(w)) >> 48)
}

func (p *packRig) run() *outcome {
	o := newOutcome()
	var log opLog
	var names []string
	phases := []func(){
		func() { names = p.files(&log) },
		func() { p.raw(p.drv, &log) },
		func() { p.rescan(names, &log) },
		func() { p.aging(o, &log) },
		func() { p.crashes(o, &log) },
	}
	for i, run := range phases {
		t := time.Now()
		run()
		if p.cfg.traced {
			p.phase[i] = time.Since(t)
		}
	}
	o.sim = p.clk.Now()
	o.merge(&log, o.sim)

	diskReport(o, p.drv, p.aged)
	if p.cfg.traced {
		o.layer["file.write_page_us"] = p.writePage.perCall(time.Microsecond)
		o.layer["file.read_page_us"] = p.readPage.perCall(time.Microsecond)
		o.layer["dir.insert_us"] = p.insert.perCall(time.Microsecond)
		o.layer["dir.lookup_us"] = p.lookup.perCall(time.Microsecond)
		o.layer["disk.do_ns"] = p.do.perCall(time.Nanosecond)
		o.layer["disk.chain_ns_per_op"] = p.chainOp.perCall(time.Nanosecond)
		o.layer["scavenge.run_ms"] = p.scavRun.perCall(time.Millisecond)
		o.layer["scavenge.compact_ms"] = p.compact.perCall(time.Millisecond)
		o.layer["fsck.check_ms"] = p.check.perCall(time.Millisecond)
		o.layer["crashpoint.ms_per_point"] = p.explore.perCall(time.Millisecond)
		o.layer["trace.events"] = float64(p.rec.Snapshot().Events)
		for i, name := range packPhases {
			o.layer["phase."+name+"_s"] = p.phase[i].Seconds()
		}
	}
	if p.scavN > 0 {
		o.fields = append(o.fields, field{"scavenge.run_sim_ns", int64(p.scavSim)})
		o.layer["scavenge.run_sim_s"] = p.scavSim.Seconds() / float64(p.scavN)
	}
	return o
}

// packFill is how many files the files phase writes: E3's count, enough
// 24-page files (a leader, the pages and an empty tail page each) to fill
// packFillPct of the pack.
func packFill(g disk.Geometry) int {
	return g.NSectors() * packFillPct / 100 / (packFilePages + 2)
}

// files fills the pack through the file and directory layers, then looks
// every file up and reads it back, twice over in seeded orders. Writing a
// file and reading one back are one operation each; with two reads per
// write, the median operation is a read and the tail a write. A user pauses
// between operations: a seeded think time of up to one revolution, so each
// operation meets the disk at its own rotational position instead of the
// one the last left it at. It returns the files' names.
func (p *packRig) files(log *opLog) []string {
	seed := p.cfg.seed
	rnd := sim.NewRand(mix(seed, 1))
	names := make([]string, packFill(p.drv.Geometry()))
	for i := range names {
		names[i] = packName(rnd, i)
	}
	rev := p.drv.Geometry().RevTime
	think := func() { p.clk.Advance(time.Duration(rnd.Intn(int(rev/time.Microsecond))) * time.Microsecond) }
	var page [disk.PageWords]disk.Word
	for i, name := range names {
		think()
		start := p.clk.Now()
		err := func() error {
			f, err := p.fs.Create(name)
			if err != nil {
				return err
			}
			for pn := 1; pn <= packFilePages; pn++ {
				for w := range page {
					page[w] = packWord(seed, i, pn, w)
				}
				if err := p.timed(&p.writePage, func() error { return f.WritePage(disk.Word(pn), &page, disk.PageBytes) }); err != nil {
					return err
				}
			}
			if err := f.Sync(); err != nil {
				return err
			}
			return p.timed(&p.insert, func() error { return p.root.Insert(name, f.FN()) })
		}()
		if err != nil {
			log.fail(start, 1, fmt.Errorf("write %s: %w", name, err))
			continue
		}
		log.ok(start, p.clk.Now())
	}

	for _, i := range append(rnd.Perm(len(names)), rnd.Perm(len(names))...) {
		think()
		start := p.clk.Now()
		if err := p.readBack(p.fs, p.root, names[i], i, log); err != nil {
			log.fail(start, 1, fmt.Errorf("read %s: %w", names[i], err))
			continue
		}
		log.ok(start, p.clk.Now())
	}
	return names
}

// readBack looks file i up by name and checks every page against what the
// files phase wrote.
func (p *packRig) readBack(fs *file.FS, root *dir.Directory, name string, i int, log *opLog) error {
	var fn file.FN
	err := p.timed(&p.lookup, func() (err error) { fn, err = root.Lookup(name); return err })
	if err != nil {
		return err
	}
	f, err := fs.Open(fn)
	if err != nil {
		return err
	}
	// A file whose last page is full carries an empty tail page.
	if f.Size() != packFilePages*disk.PageBytes {
		log.wrong = append(log.wrong, fmt.Sprintf("%s holds %d bytes, want %d", name, f.Size(), packFilePages*disk.PageBytes))
	}
	var page [disk.PageWords]disk.Word
	for pn := 1; pn <= packFilePages; pn++ {
		if err := p.timed(&p.readPage, func() error { _, err := f.ReadPage(disk.Word(pn), &page); return err }); err != nil {
			return err
		}
		for w := range page {
			if page[w] != packWord(p.cfg.seed, i, pn, w) {
				log.wrong = append(log.wrong, fmt.Sprintf("%s page %d word %d: read %#x, wrote %#x", name, pn, w, page[w], packWord(p.cfg.seed, i, pn, w)))
				break
			}
		}
	}
	return nil
}

// rescan scavenges the filled pack (E3), certifies it with fsck, and reads
// a seeded sample of its files back through the rebuilt file system. The
// scavenge is one operation and each file read one more.
func (p *packRig) rescan(names []string, log *opLog) {
	start := p.clk.Now()
	var fs *file.FS
	err := p.timed(&p.scavRun, func() (err error) {
		var rep *scavenge.Report
		fs, rep, err = scavenge.Run(p.drv)
		if err == nil {
			p.scavN++
			p.scavSim += rep.Elapsed
		}
		return err
	})
	if err == nil {
		err = p.certify(p.drv, log, "scavenged pack")
	}
	var root *dir.Directory
	if err == nil {
		root, err = dir.OpenRoot(fs)
	}
	if err != nil {
		log.fail(start, 1+packRescan, fmt.Errorf("scavenge: %w", err))
		return
	}
	log.ok(start, p.clk.Now())
	rnd := sim.NewRand(mix(p.cfg.seed, 5))
	for _, i := range rnd.Perm(len(names))[:packRescan] {
		start := p.clk.Now()
		if err := p.readBack(fs, root, names[i], i, log); err != nil {
			log.fail(start, 1, fmt.Errorf("re-read %s after scavenge: %w", names[i], err))
			continue
		}
		log.ok(start, p.clk.Now())
	}
}

// packName is file i's name: a seeded length, so the directory grows by a
// different amount on every seed and placement and lookup cost move with it.
func packName(rnd *sim.Rand, i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 7+rnd.Intn(3))
	for j := range b {
		b[j] = letters[rnd.Intn(len(letters))]
	}
	return fmt.Sprintf("%s.%03d", b, i)
}

// raw issues single operations and free-order chains straight at the drive,
// reading header, label and value of seeded sectors, and checks every label
// read against the pack. The label is read as a check against an all-zero
// pattern: every word is a wildcard, so the check fills the buffer in, a
// guarded read. Each single operation and each chain counts as an attempted
// operation; they are not user operations, so they add no latency sample.
func (p *packRig) raw(drv *disk.Drive, log *opLog) {
	rnd := sim.NewRand(mix(p.cfg.seed, 2))
	n := drv.Geometry().NSectors()
	var hdr [disk.HeaderWords]disk.Word
	var lbl [disk.LabelWords]disk.Word
	var val [disk.PageWords]disk.Word
	read := func(addr disk.VDA) disk.Op {
		lbl = [disk.LabelWords]disk.Word{}
		return disk.Op{Addr: addr, Header: disk.Read, Label: disk.Check, Value: disk.Read,
			HeaderData: &hdr, LabelData: &lbl, ValueData: &val}
	}
	checkLabel := func(addr disk.VDA, got [disk.LabelWords]disk.Word) {
		if want, ok := drv.PeekLabel(addr); ok && want != got {
			log.wrong = append(log.wrong, fmt.Sprintf("sector %d: label read %v, pack holds %v", addr, got, want))
		}
	}
	for i := 0; i < packRawOps; i++ {
		addr := disk.VDA(rnd.Intn(n))
		op := read(addr)
		start := p.clk.Now()
		if err := p.timed(&p.do, func() error { return drv.Do(&op) }); err != nil {
			log.fail(start, 1, fmt.Errorf("do sector %d: %w", addr, err))
			continue
		}
		checkLabel(addr, lbl)
		log.done()
	}

	ops := make([]disk.Op, packChainLen)
	lbls := make([][disk.LabelWords]disk.Word, packChainLen)
	vals := make([][disk.PageWords]disk.Word, packChainLen)
	for c := 0; c < packChains; c++ {
		for i := range ops {
			lbls[i] = [disk.LabelWords]disk.Word{}
			ops[i] = disk.Op{Addr: disk.VDA(rnd.Intn(n)), Label: disk.Check, Value: disk.Read,
				LabelData: &lbls[i], ValueData: &vals[i]}
		}
		start := p.clk.Now()
		var errs []error
		p.timed(&p.chainOp, func() error { errs = drv.DoChain(ops, disk.FreeOrder); return nil })
		if err := disk.FirstChainError(errs); err != nil {
			log.fail(start, 1, fmt.Errorf("chain %d: %w", c, err))
			continue
		}
		for i := range ops { // FreeOrder reorders ops in place
			checkLabel(ops[i].Addr, *ops[i].LabelData)
		}
		log.done()
	}
	// chainOp timed whole chains; report it per operation in the chain.
	p.chainOp.n *= packChainLen
}

// crashes sweeps every crash point of the crash workloads, clean and torn,
// then re-runs a seeded sample of points by hand so the Scavenger and fsck
// can be timed per call. Every recovered pack must pass fsck.
func (p *packRig) crashes(o *outcome, log *opLog) {
	rnd := sim.NewRand(mix(p.cfg.seed, 3))
	points, clean := 0, 0
	for _, w := range p.crash {
		t := time.Now()
		res, err := crashpoint.Explore(w, crashpoint.Options{Workers: p.cfg.workers, Torn: true, Rec: p.rec})
		if err != nil {
			log.fail(p.clk.Now(), 1, fmt.Errorf("explore %s: %w", w.Name, err))
			continue
		}
		if p.cfg.traced {
			p.explore.n += int64(len(res.Outcomes))
			p.explore.d += time.Since(t)
		}
		log.attempted += len(res.Outcomes)
		points += len(res.Outcomes)
		clean += res.Clean
		for _, oc := range res.Outcomes {
			if !oc.Consistent {
				log.wrong = append(log.wrong, fmt.Sprintf("%s point %d torn %v: %v", w.Name, oc.Point, oc.Torn, oc.Violations))
			}
		}

		for j := 0; j < packWrecks; j++ {
			point := 1 + rnd.Intn(int(res.Writes))
			torn := rnd.Bool(1, 2)
			o.fields = append(o.fields, field{fmt.Sprintf("wreck %s", w.Name), int64(point)})
			if err := p.wreck(w, point, torn, log); err != nil {
				log.fail(p.clk.Now(), 1, fmt.Errorf("wreck %s point %d: %w", w.Name, point, err))
				continue
			}
			log.done()
		}
	}
	o.count("crashpoint.points", int64(points))
	o.count("crashpoint.clean", int64(clean))
}

// wreck crashes one rig at the given write and recovers it.
func (p *packRig) wreck(w crashpoint.Workload, point int, torn bool, log *opLog) error {
	rig, err := w.Build()
	if err != nil {
		return err
	}
	d := rig.Drive
	d.SetTornCrash(torn)
	d.CrashAfterWrites(int64(point) - 1)
	_ = rig.Run() // the crash is expected to cut the run short
	d.ClearCrash()
	d.SetTornCrash(false)
	if _, fired := d.CrashAt(); !fired {
		return fmt.Errorf("crash never fired")
	}
	if err := p.recover(d, log, fmt.Sprintf("%s point %d torn %v", w.Name, point, torn)); err != nil {
		return err
	}
	if rig.Verify != nil {
		for _, v := range rig.Verify() {
			log.wrong = append(log.wrong, fmt.Sprintf("%s point %d: %s", w.Name, point, v))
		}
	}
	return nil
}

// recover scavenges a pack and certifies it with fsck.
func (p *packRig) recover(d *disk.Drive, log *opLog, what string) error {
	var rep *scavenge.Report
	if err := p.timed(&p.scavRun, func() (err error) { _, rep, err = scavenge.Run(d); return err }); err != nil {
		return fmt.Errorf("scavenge: %w", err)
	}
	p.scavN++
	p.scavSim += rep.Elapsed
	return p.certify(d, log, what)
}

func (p *packRig) certify(d *disk.Drive, log *opLog, what string) error {
	var fr *fsck.Report
	if err := p.timed(&p.check, func() (err error) { fr, err = fsck.Check(d); return err }); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	for _, v := range fr.Strings() {
		log.wrong = append(log.wrong, fmt.Sprintf("%s: %s", what, v))
	}
	return nil
}

// aging is experiment E4 with seeded inputs: twelve files grown in
// lockstep, so each file's consecutive pages lie a revolution apart; one
// seeded file read sequentially, then scattered page by page to random free
// sectors, re-linked by the Scavenger and read again; then the pack
// compacted, certified by fsck, and every file re-read sequentially and
// checked. Each sequential read is one operation, and so are the growth and
// the compaction.
func (p *packRig) aging(o *outcome, log *opLog) {
	seed := p.cfg.seed
	rnd := sim.NewRand(mix(seed, 4))
	target := rnd.Intn(packAgedFiles)
	const ops = 1 + 2 + 1 + packAgedFiles // grow, read before and after scattering, compact, re-reads
	name := func(i int) string { return fmt.Sprintf("aged%02d", i) }

	start := p.clk.Now()
	files, err := p.grow()
	if err != nil {
		log.fail(start, ops, fmt.Errorf("aging: grow: %w", err))
		return
	}
	log.ok(start, p.clk.Now())

	start = p.clk.Now()
	if err := p.readSequential(p.agedF, name(target), target, log); err != nil {
		log.fail(start, ops-1, fmt.Errorf("aging: read %s: %w", name(target), err))
		return
	}
	log.ok(start, p.clk.Now())

	start = p.clk.Now()
	fs, err := p.scatter(files[target], rnd)
	if err == nil {
		err = p.readSequential(fs, name(target), target, log)
	}
	if err != nil {
		log.fail(start, ops-2, fmt.Errorf("aging: scattered %s: %w", name(target), err))
		return
	}
	log.ok(start, p.clk.Now())

	start = p.clk.Now()
	var crep *scavenge.CompactReport
	err = p.timed(&p.compact, func() (err error) { fs, crep, err = scavenge.Compact(p.aged); return err })
	if err == nil {
		o.count("compact.pages_moved", int64(crep.PagesMoved))
		o.count("compact.files", int64(crep.FilesLaidOut))
		err = p.certify(p.aged, log, "compacted pack")
	}
	if err != nil {
		log.fail(start, ops-3, fmt.Errorf("aging: compaction: %w", err))
		return
	}
	log.ok(start, p.clk.Now())

	for i := 0; i < packAgedFiles; i++ {
		start := p.clk.Now()
		if err := p.readSequential(fs, name(i), i, log); err != nil {
			log.fail(start, 1, fmt.Errorf("aging: re-read %s: %w", name(i), err))
			continue
		}
		log.ok(start, p.clk.Now())
	}
}

// agedWord is word w of page pn of aged file i.
func (p *packRig) agedWord(i, pn, w int) disk.Word { return packWord(p.cfg.seed, 1000+i, pn, w) }

// grow creates the aged files and writes them in lockstep, page pn of
// every file before page pn+1 of any.
func (p *packRig) grow() ([]*file.File, error) {
	files := make([]*file.File, packAgedFiles)
	for i := range files {
		name := fmt.Sprintf("aged%02d", i)
		f, err := p.agedF.Create(name)
		if err != nil {
			return nil, err
		}
		if err := p.timed(&p.insert, func() error { return p.agedR.Insert(name, f.FN()) }); err != nil {
			return nil, err
		}
		files[i] = f
	}
	var page [disk.PageWords]disk.Word
	for pn := 1; pn <= packAgedPages; pn++ {
		for i, f := range files {
			for w := range page {
				page[w] = p.agedWord(i, pn, w)
			}
			if err := p.timed(&p.writePage, func() error { return f.WritePage(disk.Word(pn), &page, disk.PageBytes) }); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// scatter moves every page of f to a random free sector under the label
// discipline, as an aged disk would have it, and lets the Scavenger rebuild
// the links it left stale.
func (p *packRig) scatter(f *file.File, rnd *sim.Rand) (*file.FS, error) {
	free := p.agedF.Descriptor().Free
	n := p.aged.Geometry().NSectors()
	fv := f.FN().FV
	for pn := disk.Word(0); pn <= f.LastPN(); pn++ {
		from, err := f.PageAddr(pn)
		if err != nil {
			return nil, err
		}
		to := disk.VDA(rnd.Intn(n))
		if free.Busy(to) {
			continue // only move into free sectors
		}
		if err := movePage(p.aged, from, to, fv, pn); err != nil {
			return nil, err
		}
		free.SetBusy(to)
		free.SetFree(from)
	}
	var fs *file.FS
	var rep *scavenge.Report
	if err := p.timed(&p.scavRun, func() (err error) { fs, rep, err = scavenge.Run(p.aged); return err }); err != nil {
		return nil, err
	}
	p.scavN++
	p.scavSim += rep.Elapsed
	return fs, nil
}

// readSequential opens aged file i by name and reads it front to back,
// checking the first and last word of every page. The Scavenger may append
// an empty tail page to a file whose last page is full; the bytes must be
// exactly those written.
func (p *packRig) readSequential(fs *file.FS, name string, i int, log *opLog) error {
	fn, err := dir.ResolveName(fs, name)
	if err != nil {
		return err
	}
	f, err := fs.Open(fn)
	if err != nil {
		return err
	}
	if f.Size() != packAgedPages*disk.PageBytes {
		log.wrong = append(log.wrong, fmt.Sprintf("%s holds %d bytes, want %d", name, f.Size(), packAgedPages*disk.PageBytes))
	}
	var page [disk.PageWords]disk.Word
	for pn := 1; pn <= packAgedPages; pn++ {
		if err := p.timed(&p.readPage, func() error { _, err := f.ReadPage(disk.Word(pn), &page); return err }); err != nil {
			return err
		}
		if page[0] != p.agedWord(i, pn, 0) || page[disk.PageWords-1] != p.agedWord(i, pn, disk.PageWords-1) {
			log.wrong = append(log.wrong, fmt.Sprintf("%s page %d differs from what was written", name, pn))
		}
	}
	return nil
}

// movePage relocates one page to a free sector: read it under its label,
// allocate the destination under the same label, free the source. The
// links go stale; the Scavenger repairs them.
func movePage(d *disk.Drive, from, to disk.VDA, fv disk.FV, pn disk.Word) error {
	lbl, err := disk.ReadLabel(d, from, fv, pn)
	if err != nil {
		return err
	}
	var v [disk.PageWords]disk.Word
	if err := disk.ReadValue(d, from, lbl, &v); err != nil {
		return err
	}
	if err := disk.Allocate(d, to, lbl, &v); err != nil {
		return err
	}
	return disk.Free(d, from, lbl)
}
