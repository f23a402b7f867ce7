package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"altoos/internal/core"
	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/scope"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// fanin is shaped like experiment E14: a building of client Altos each boot
// their own OS, then store, fetch and verify a payload through one file
// server over a lossy wire. Nearly every fleet window activates one machine
// while the engine rescans all of them, so the engine dominates host time.
//
// One iteration runs faninBuildings such buildings one after another, each
// on its own sub-seed. A single building's makespan and latencies move by
// about a tenth from seed to seed (they hang on which packets the wire
// drops); pooling four halves that, so a run's figures are steady across
// seeds.
const (
	faninBuildings  = 4
	faninClients    = 100
	faninLocalPages = 3
	faninStagger    = 160 * time.Nanosecond
	faninServer     = ether.Addr(1)
	faninOps        = 4 // per client: boot, store, fetch, close
)

func init() { workloads["fanin"] = &workload{name: "fanin", setup: faninSetup} }

type faninRig struct {
	cfg       config
	buildings []*building
}

// building is one E14-shaped fleet: a file server and its client Altos.
type building struct {
	cfg    config
	seed   uint64
	recs   *scope.Fleet
	wire   *ether.Network
	faults *ether.FaultMedium
	eng    *fleet.Engine
	srv    *fileserver.Server
	srvDrv *disk.Drive
	clocks []*sim.Clock // server first
	actors []*actor     // server first
	logs   []opLog      // per client
	drives []*disk.Drive
	boots  []time.Duration // host time per boot, traced runs only
}

// faninPayload is client i's payload: the sizes are a seeded permutation of
// E14's fixed mix, so every seed moves the same number of bytes.
func faninPayloads(seed uint64) [][]byte {
	perm := sim.NewRand(mix(seed, 2)).Perm(faninClients)
	rnd := sim.NewRand(mix(seed, 3))
	out := make([][]byte, faninClients)
	for i := range out {
		data := make([]byte, 300+(perm[i]%7)*90)
		for j := range data {
			data[j] = byte(rnd.Word())
		}
		out[i] = data
	}
	return out
}

func faninMiniGeometry() disk.Geometry {
	g := disk.Diablo31()
	g.Name = "Diablo31/16"
	g.Cylinders = 16
	return g
}

func faninSetup(cfg config) (rig, error) {
	f := &faninRig{cfg: cfg}
	for b := 0; b < faninBuildings; b++ {
		bl, err := newBuilding(cfg, mix(cfg.seed, 7000+uint64(b)))
		if err != nil {
			return nil, err
		}
		f.buildings = append(f.buildings, bl)
	}
	return f, nil
}

// newBuilding builds one fleet; every seeded input derives from seed.
func newBuilding(cfg config, seed uint64) (*building, error) {
	f := &building{cfg: cfg, seed: seed, recs: newRecorders(cfg)}
	f.wire = ether.New(nil)
	f.wire.SetRecorder(recorder(f.recs, "wire"))
	f.faults = f.wire.InjectFaults(ether.FaultConfig{
		Seed:    mix(seed, 1),
		Drop:    ether.Rate{Num: 1, Den: 200},
		Corrupt: ether.Rate{Num: 1, Den: 400},
	})
	f.eng = fleet.New(fleet.Workers(cfg.workers), fleet.Medium(f.wire))

	srvClock := sim.NewClock()
	srvRec := recorder(f.recs, "server")
	srvSt, err := f.wire.Attach(faninServer)
	if err != nil {
		return nil, err
	}
	srvSt.SetClock(srvClock)
	srvSt.SetRecorder(srvRec)
	f.srvDrv, err = disk.NewDrive(disk.Diablo31(), 1, srvClock)
	if err != nil {
		return nil, err
	}
	f.srvDrv.SetRecorder(srvRec)
	fs, err := file.Format(f.srvDrv)
	if err != nil {
		return nil, err
	}
	if _, err := dir.InitRoot(fs); err != nil {
		return nil, err
	}
	f.srv = fileserver.NewServer(fs, pup.NewEndpoint(srvSt, pup.Config{}))
	srvClock.Reset() // the server was up before the building woke
	srvActor := &actor{traced: cfg.traced}
	f.clocks = append(f.clocks, srvClock)
	f.actors = append(f.actors, srvActor)
	f.eng.Add(fleet.MachineConfig{
		Name:    "server",
		Clock:   srvClock,
		Station: srvSt,
		Daemon:  true,
		Program: srvActor.serveProgram(f.srv.Poll),
	})

	payloads := faninPayloads(seed)
	f.logs = make([]opLog, faninClients)
	f.drives = make([]*disk.Drive, faninClients)
	f.boots = make([]time.Duration, faninClients)
	for i := 0; i < faninClients; i++ {
		clk := sim.NewClock()
		st, err := f.wire.Attach(ether.Addr((2 + i) & 0xFFFF))
		if err != nil {
			return nil, err
		}
		st.SetClock(clk)
		name := fmt.Sprintf("alto%03d", i)
		st.SetRecorder(recorder(f.recs, name))
		a := &actor{traced: cfg.traced}
		f.clocks = append(f.clocks, clk)
		f.actors = append(f.actors, a)
		f.eng.Add(fleet.MachineConfig{
			Name:    name,
			Clock:   clk,
			Station: st,
			StartAt: time.Duration(i+1) * faninStagger,
			Program: f.client(i, a, clk, st, payloads[i]),
		})
	}
	return f, nil
}

// client is one Alto's life. Its four operations are boot, store, fetch
// (with a byte-for-byte check) and close; an error ends the machine's life
// and counts the operation it hit and every one after it as failed, so one
// client's failure never stops the fleet. Only store and fetch add latency
// samples: boot is the same local work on every Alto, and close ends a
// session rather than being something a user waits on.
func (f *building) client(i int, a *actor, clk *sim.Clock, st *ether.Station, data []byte) func(*fleet.Machine) error {
	log := &f.logs[i]
	rec := st.TraceRecorder()
	return func(m *fleet.Machine) error {
		a.begin(m)
		defer a.end()
		start := clk.Now()

		hostBoot := time.Now()
		drv, err := faninBoot(i, clk, rec, f.seed)
		if err != nil {
			log.fail(start, faninOps, fmt.Errorf("alto%03d boot: %w", i, err))
			return nil
		}
		if f.cfg.traced {
			f.boots[i] = time.Since(hostBoot)
		}
		f.drives[i] = drv
		log.done()

		cl := fileserver.NewClient(pup.NewEndpoint(st, pup.Config{
			Seed:       mix(f.seed, 100+uint64(i)),
			MaxRTO:     time.Second,
			MaxRetries: 50 + 3*faninClients,
		}))
		name := fmt.Sprintf("alto%03d", i)
		start = clk.Now()
		err = cl.Connect(faninServer)
		if err == nil {
			err = cl.Store(name, data)
		}
		if err == nil {
			err = a.wait(cl)
		}
		if err != nil {
			log.fail(start, faninOps-1, fmt.Errorf("%s store: %w", name, err))
			return nil
		}
		log.ok(start, clk.Now())

		start = clk.Now()
		if err := cl.Fetch(name); err != nil {
			log.fail(start, faninOps-2, fmt.Errorf("%s fetch: %w", name, err))
			return nil
		}
		if err := a.wait(cl); err != nil {
			log.fail(start, faninOps-2, fmt.Errorf("%s fetch: %w", name, err))
			return nil
		}
		got, _ := cl.Result() // wait returned Result's error: nil
		if !bytes.Equal(got, data) {
			err := fmt.Errorf("%s: fetched %d bytes differ from the %d stored", name, len(got), len(data))
			log.wrong = append(log.wrong, err.Error())
			log.fail(start, faninOps-2, err)
			return nil
		}
		log.ok(start, clk.Now())

		start = clk.Now()
		if err := cl.Close(); err != nil {
			log.fail(start, 1, fmt.Errorf("%s close: %w", name, err))
			return nil
		}
		if err := a.closed(cl); err != nil {
			log.fail(start, 1, fmt.Errorf("%s close: %w", name, err))
			return nil
		}
		log.done()
		return nil
	}
}

// faninBoot formats the Alto's own pack, brings up the OS on it, installs
// a root directory, and writes and re-reads a short local journal.
func faninBoot(i int, clk *sim.Clock, rec *trace.Recorder, seed uint64) (*disk.Drive, error) {
	drv, err := disk.NewDrive(faninMiniGeometry(), disk.Word((2+i)&0xFFFF), clk)
	if err != nil {
		return nil, err
	}
	drv.SetRecorder(rec)
	if _, err := file.Format(drv); err != nil {
		return nil, err
	}
	sys, err := core.New(core.Config{Drive: drv, Display: io.Discard})
	if err != nil {
		return nil, err
	}
	if _, err := dir.InitRoot(sys.FS); err != nil {
		return nil, err
	}
	root, err := dir.OpenRoot(sys.FS)
	if err != nil {
		return nil, err
	}
	f, err := sys.FS.Create("journal")
	if err != nil {
		return nil, err
	}
	word := func(pn, w int) disk.Word { return disk.Word((uint64(i*37+pn*11+w*3) + seed) & 0xFFFF) }
	var page [disk.PageWords]disk.Word
	for pn := 1; pn <= faninLocalPages; pn++ {
		for w := range page {
			page[w] = word(pn, w)
		}
		if err := f.WritePage(disk.Word(pn), &page, disk.PageBytes); err != nil {
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := root.Insert("journal", f.FN()); err != nil {
		return nil, err
	}
	for pn := 1; pn <= faninLocalPages; pn++ {
		if _, err := f.ReadPage(disk.Word(pn), &page); err != nil {
			return nil, err
		}
		for w := range page {
			if page[w] != word(pn, w) {
				return nil, fmt.Errorf("journal page %d word %d corrupt", pn, w)
			}
		}
	}
	return drv, nil
}

func (f *faninRig) run() *outcome {
	o := newOutcome()
	var fs fleetStats
	var tt traceTotals
	var boot time.Duration
	boots := 0
	for _, b := range f.buildings {
		t := time.Now()
		err := b.eng.Run()
		fs.add(b.eng, time.Since(t), b.actors)
		if err != nil {
			o.failure("fleet: %v", err)
		}
		var end time.Duration
		for _, c := range b.clocks {
			end = max(end, c.Now())
		}
		for i := range b.logs {
			b.logs[i].settle(faninOps, b.clocks[1+i].Now())
			o.merge(&b.logs[i], end)
		}
		o.sim += end // the buildings run one after another

		wireReport(o, b.wire, b.faults)
		diskReport(o, append([]*disk.Drive{b.srvDrv}, b.drives...)...)
		serverReport(o, b.srv.Stats())
		if f.cfg.traced {
			for _, d := range b.boots {
				if d > 0 {
					boot += d
					boots++
				}
			}
			tt.add(b.recs)
		}
	}
	fs.report(o, f.cfg.traced)
	if f.cfg.traced {
		if boots > 0 {
			o.layer["core.boot_ms"] = float64(boot) / float64(boots) / float64(time.Millisecond)
		}
		tt.report(o)
	}
	return o
}
