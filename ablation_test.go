package altoos

// Ablations: what each design decision of the paper actually buys or costs
// on the simulated hardware. Unlike E1–E15 (which reproduce the paper's
// claims), these turn a mechanism off and measure the difference:
//
//   - label checking on ordinary writes        (§3.3: "at no cost in time")
//   - consecutive allocation                   (§3.6: computed-address hints)
//   - per-file hint caching                    (§3.6: links cost revolutions)
//   - write-ahead directory journaling         (§3.5: why the paper skipped it)
//
// Each ablation is a function that runs once on a fresh rig and returns its
// simulated metrics. TestAblations pins every metric exactly;
// BenchmarkAblations measures only what a run costs the host.

import (
	"fmt"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/dirlog"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/mem"
	"altoos/internal/sim"
	"altoos/internal/zone"
)

// ablationRig is a formatted drive + fs + root.
type ablationRig struct {
	drive *disk.Drive
	fs    *file.FS
	root  *dir.Directory
}

func newAblationRig(tb testing.TB) *ablationRig {
	tb.Helper()
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := file.Format(d)
	if err != nil {
		tb.Fatal(err)
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		tb.Fatal(err)
	}
	return &ablationRig{drive: d, fs: fs, root: root}
}

// ablateLabelCheck compares an ordinary data write (label checked
// in passing) against a raw value write with no check at all. The paper's
// §3.3 claim is that the check is free; the ablation confirms the whole
// robustness story costs zero revolutions on the hot path.
func ablateLabelCheck(tb testing.TB) map[string]float64 {
	r := newAblationRig(tb)
	g := r.drive.Geometry()
	rnd := sim.NewRand(1)
	const n = 300
	addrs := make([]disk.VDA, n)
	lbls := make([]disk.Label, n)
	var v [disk.PageWords]disk.Word
	for j := range addrs {
		addrs[j] = disk.VDA(1000 + rnd.Intn(3000))
		lbls[j] = disk.Label{FID: disk.FirstUserFID, Version: 1,
			PageNum: disk.Word(j), Length: disk.PageBytes, Next: disk.NilVDA, Prev: disk.NilVDA}
		if err := disk.Allocate(r.drive, addrs[j], lbls[j], &v); err != nil && !disk.IsCheck(err) {
			tb.Fatal(err)
		}
	}
	t0 := r.drive.Clock().Now()
	for j := range addrs {
		if err := disk.WriteValue(r.drive, addrs[j], lbls[j], &v); err != nil && !disk.IsCheck(err) {
			tb.Fatal(err)
		}
	}
	withCheck := r.drive.Clock().Now() - t0

	t1 := r.drive.Clock().Now()
	for j := range addrs {
		// The ablated write: no label action at all.
		if err := r.drive.Do(&disk.Op{Addr: addrs[j], Value: disk.Write, ValueData: &v}); err != nil {
			tb.Fatal(err)
		}
	}
	noCheck := r.drive.Clock().Now() - t1
	checked := float64(withCheck) / float64(g.RevTime) / n
	raw := float64(noCheck) / float64(g.RevTime) / n
	return map[string]float64{
		"revs/write_checked":   checked,
		"revs/write_unchecked": raw,
		"revs_check_overhead":  checked - raw,
	}
}

// ablateConsecutiveAllocation grows one file normally (allocator
// prefers the next sector) and one with the rover deliberately scattered
// before every extension, then compares steady-state sequential read cost —
// what the allocator's placement policy is worth.
func ablateConsecutiveAllocation(tb testing.TB) map[string]float64 {
	r := newAblationRig(tb)
	rnd := sim.NewRand(2)
	const pages = 64
	grow := func(name string, scatter bool) *file.File {
		f, err := r.fs.Create(name)
		if err != nil {
			tb.Fatal(err)
		}
		var p [disk.PageWords]disk.Word
		for pn := 1; pn <= pages; pn++ {
			if scatter {
				// Ablate the placement policy: the extension triggered
				// by this write must not find the adjacent sector free,
				// and the fallback scan starts somewhere random. (Marking
				// the map busy is enough — the allocator consults it
				// first; the lie is confined to this run.)
				lastPN, _ := f.LastPage()
				if a, err := f.PageAddr(lastPN); err == nil && int(a)+1 < r.fs.Descriptor().Free.Len() {
					r.fs.Descriptor().Free.SetBusy(a + 1)
				}
				r.fs.SetRover(disk.VDA(rnd.Intn(r.drive.Geometry().NSectors())))
			}
			if err := f.WritePage(disk.Word(pn), &p, disk.PageBytes); err != nil {
				tb.Fatal(err)
			}
		}
		return f
	}
	read := func(f *file.File) float64 {
		var buf [disk.PageWords]disk.Word
		lastPN, _ := f.LastPage()
		// Warm pass, then measured pass.
		for pn := disk.Word(1); pn <= lastPN; pn++ {
			if _, err := f.ReadPage(pn, &buf); err != nil {
				tb.Fatal(err)
			}
		}
		t0 := r.drive.Clock().Now()
		for pn := disk.Word(1); pn <= lastPN; pn++ {
			if _, err := f.ReadPage(pn, &buf); err != nil {
				tb.Fatal(err)
			}
		}
		return float64(r.drive.Clock().Now()-t0) / 1e6 / float64(lastPN)
	}
	seqMS := read(grow("seq.dat", false))
	scatMS := read(grow("scat.dat", true))
	return map[string]float64{
		"ms/page_consecutive":     seqMS,
		"ms/page_scattered_alloc": scatMS,
		"slowdown_without_policy": scatMS / seqMS,
	}
}

// ablateHintCache reads a file sequentially with the per-handle
// hint cache working, then with hints forcibly forgotten before every page —
// the cost of living on links alone.
func ablateHintCache(tb testing.TB) map[string]float64 {
	r := newAblationRig(tb)
	f, err := r.fs.Create("hints.dat")
	if err != nil {
		tb.Fatal(err)
	}
	var p [disk.PageWords]disk.Word
	const pages = 48
	for pn := 1; pn <= pages; pn++ {
		if err := f.WritePage(disk.Word(pn), &p, disk.PageBytes); err != nil {
			tb.Fatal(err)
		}
	}
	var buf [disk.PageWords]disk.Word
	h, err := r.fs.Open(f.FN())
	if err != nil {
		tb.Fatal(err)
	}
	t0 := r.drive.Clock().Now()
	for pn := disk.Word(1); pn <= pages; pn++ {
		if _, err := h.ReadPage(pn, &buf); err != nil {
			tb.Fatal(err)
		}
	}
	withMS := float64(r.drive.Clock().Now()-t0) / 1e6 / pages

	t1 := r.drive.Clock().Now()
	for pn := disk.Word(1); pn <= pages; pn++ {
		h.ForgetHints() // ablation: every access starts from the leader
		if _, err := h.ReadPage(pn, &buf); err != nil {
			tb.Fatal(err)
		}
	}
	withoutMS := float64(r.drive.Clock().Now()-t1) / 1e6 / pages
	return map[string]float64{
		"ms/page_with_hints":     withMS,
		"ms/page_without_hints":  withoutMS,
		"slowdown_without_hints": withoutMS / withMS,
	}
}

// ablateDirectoryJournal measures what the paper's rejected
// alternative — write-ahead journaling of directory changes (§3.5) — costs
// per mutation, quantifying the trade they made.
func ablateDirectoryJournal(tb testing.TB) map[string]float64 {
	r := newAblationRig(tb)
	m := mem.New()
	z, err := zone.New(m, 0x4000, 0x4000)
	if err != nil {
		tb.Fatal(err)
	}
	log, err := dirlog.Open(r.fs, z, m)
	if err != nil {
		tb.Fatal(err)
	}
	ld := log.Wrap(r.root)

	const n = 20
	mk := func(j int) file.FN {
		f, err := r.fs.Create(fmt.Sprintf("j%03d", j))
		if err != nil {
			tb.Fatal(err)
		}
		return f.FN()
	}
	fns := make([]file.FN, 2*n)
	for j := range fns {
		fns[j] = mk(j)
	}

	t0 := r.drive.Clock().Now()
	for j := 0; j < n; j++ {
		if err := r.root.Insert(fmt.Sprintf("plain%03d", j), fns[j]); err != nil {
			tb.Fatal(err)
		}
	}
	plainMS := float64(r.drive.Clock().Now()-t0) / 1e6 / n

	t1 := r.drive.Clock().Now()
	for j := 0; j < n; j++ {
		if err := ld.Insert(fmt.Sprintf("logged%03d", j), fns[n+j]); err != nil {
			tb.Fatal(err)
		}
	}
	loggedMS := float64(r.drive.Clock().Now()-t1) / 1e6 / n
	return map[string]float64{
		"ms/insert_plain":         plainMS,
		"ms/insert_journaled":     loggedMS,
		"journal_overhead_factor": loggedMS / plainMS,
	}
}

// ablations lists every ablation with its simulated metrics, pinned exactly:
// the virtual clock and seeded placement make each one deterministic.
var ablations = []struct {
	name string
	run  func(testing.TB) map[string]float64
	want map[string]float64
}{
	{"LabelCheck", ablateLabelCheck, map[string]float64{
		"revs/write_checked":   1.5066666666666666,
		"revs/write_unchecked": 1.5066666666666666,
		"revs_check_overhead":  0,
	}},
	{"ConsecutiveAllocation", ablateConsecutiveAllocation, map[string]float64{
		"ms/page_consecutive":     4.923076923076923,
		"ms/page_scattered_alloc": 70.15384615384616,
		"slowdown_without_policy": 14.25,
	}},
	{"HintCache", ablateHintCache, map[string]float64{
		"ms/page_with_hints":     5.763888895833333,
		"ms/page_without_hints":  187.5,
		"slowdown_without_hints": 32.53012044273479,
	}},
	{"DirectoryJournal", ablateDirectoryJournal, map[string]float64{
		"ms/insert_plain":         161.50000004999998,
		"ms/insert_journaled":     692,
		"journal_overhead_factor": 4.284829720035657,
	}},
}

// TestAblations checks every ablation's metrics against their pinned values.
// A change that moves one on purpose says why and updates the pin.
func TestAblations(t *testing.T) {
	for _, a := range ablations {
		t.Run(a.name, func(t *testing.T) {
			got := a.run(t)
			for k, want := range a.want {
				if v, ok := got[k]; !ok || v != want {
					t.Errorf("%s = %v, want %v", k, v, want)
				}
			}
			if len(got) != len(a.want) {
				t.Errorf("got %d metrics, want %d: %v", len(got), len(a.want), got)
			}
		})
	}
}

// BenchmarkAblations measures what each ablation costs the host.
func BenchmarkAblations(b *testing.B) {
	for _, a := range ablations {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.run(b)
			}
		})
	}
}
