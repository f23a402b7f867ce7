package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"altoos/internal/cluster"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/scope"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// replicas is shaped like experiment E15: clients write through a sharded,
// replicated cluster over a wire that loses a tenth of its packets, some
// overwrites skip a replica, rot strikes one replica per shard, and then
// every replica audits its shard peers until the fleet goes quiet. It uses
// the fleet, pup and fileserver layers for group writes, digest calls and
// heavy retransmission, where fanin uses them for one server's queue.
//
// One iteration runs repSites such clusters one after another, each on its
// own sub-seed and its own wire, with repClients clients each. Pooling
// several small clusters keeps a run's figures steady across seeds: one
// cluster's makespan hangs on which packets the wire drops and, while the
// audit's termination defect stands, on whether its audit finishes.
const (
	repSites         = 64
	repShards        = 4
	repReplicas      = 3
	repClients       = 6
	repFiles         = 3
	repOverwrites    = 2
	repRotSectors    = 2
	repStagger       = 160 * time.Nanosecond
	repAuditStagger  = 250 * time.Microsecond
	repAuditInterval = 120 * time.Millisecond
	repAuditQuiet    = 2
	// repAuditDeadline is how long a site's audit phase may run before the
	// benchmark gives up on it: about twice the longest audit seen to finish
	// on 60 seeds. A healthy audit mostly ends after 300, 600 or 900
	// simulated seconds; one that fails can run for 14000. Every audit cut
	// off counts as failed.
	repAuditDeadline = 2000 * time.Second
	repOps           = repFiles + repOverwrites + 1 // per client: the stores, then close
)

func init() { workloads["replicas"] = &workload{name: "replicas", setup: replicasSetup} }

// auditorFunc makes a replica's audit-phase program; the benchmark's test
// swaps in cluster.Replica.AuditProgram to check the two agree.
type auditorFunc func(r *cluster.Replica, startAt time.Duration, a *actor) func(*fleet.Machine) error

type replicasRig struct {
	cfg     config
	sites   []*site
	auditor auditorFunc
}

// site is one E15-shaped cluster with its clients and its own wire.
type site struct {
	cfg    config
	name   string
	seed   uint64
	recs   *scope.Fleet
	wire   *ether.Network
	faults *ether.FaultMedium
	c      *cluster.Cluster
	eng    *fleet.Engine // the load phase
	actors []*actor      // replicas, then clients
	clocks []*sim.Clock  // clients
	logs   []opLog       // per client
	acked  []map[string][]byte
}

// repPayload is client i's file f at version v: seeded length and content.
func repPayload(seed uint64, i, f, v int) []byte {
	rnd := sim.NewRand(mix(seed, uint64(1_000_000+i*100+f*10+v)))
	data := make([]byte, 200+rnd.Intn(5)*130)
	for j := range data {
		data[j] = byte(rnd.Word())
	}
	return data
}

func repName(i, f int) string { return fmt.Sprintf("c%02d.f%d", i, f) }

func replicasSetup(cfg config) (rig, error) {
	r := &replicasRig{cfg: cfg}
	r.auditor = func(rp *cluster.Replica, startAt time.Duration, a *actor) func(*fleet.Machine) error {
		return a.auditProgram(rp, startAt, repAuditInterval, repAuditQuiet)
	}
	for s := 0; s < repSites; s++ {
		st, err := newSite(cfg, fmt.Sprintf("site%02d", s), mix(cfg.seed, 8000+uint64(s)))
		if err != nil {
			return nil, err
		}
		r.sites = append(r.sites, st)
	}
	return r, nil
}

// newSite builds one cluster and its load phase; every seeded input derives
// from seed.
func newSite(cfg config, name string, seed uint64) (*site, error) {
	r := &site{cfg: cfg, name: name, seed: seed, recs: newRecorders(cfg)}
	r.wire = ether.New(nil)
	r.wire.SetRecorder(recorder(r.recs, "wire"))
	r.faults = r.wire.InjectFaults(ether.FaultConfig{
		Seed: mix(seed, 1),
		Drop: ether.Rate{Num: 1, Den: 10},
	})
	var recFn func(string) *trace.Recorder
	if r.recs != nil {
		recFn = r.recs.Machine
	}
	var err error
	r.c, err = cluster.New(cluster.Config{
		Shards:        repShards,
		Replicas:      repReplicas,
		Wire:          r.wire,
		Geometry:      repGeometry(),
		AuditInterval: repAuditInterval,
		AuditQuiet:    repAuditQuiet,
		AuditPup:      pup.Config{MaxRTO: time.Second, MaxRetries: 300},
		Recorder:      recFn,
	})
	if err != nil {
		return nil, err
	}

	r.eng = fleet.New(fleet.Workers(cfg.workers), fleet.Medium(r.wire))
	for _, rp := range r.c.Replicas {
		a := &actor{traced: cfg.traced}
		r.actors = append(r.actors, a)
		r.eng.Add(fleet.MachineConfig{
			Name:     rp.Name(),
			Clock:    rp.Clock(),
			Stations: rp.Stations(),
			Daemon:   true,
			Program:  a.serveProgram(rp.Poll),
		})
	}

	// Half the clients, chosen by the seed, skip one seeded replica on each
	// overwrite: the divergent stores the audit must catch.
	rnd := sim.NewRand(mix(seed, 2))
	skipper := rnd.Perm(repClients)
	r.logs = make([]opLog, repClients)
	r.acked = make([]map[string][]byte, repClients)
	for i := 0; i < repClients; i++ {
		skips := make([]int, repOverwrites)
		for f := range skips {
			skips[f] = -1
			if skipper[i] < repClients/2 {
				skips[f] = rnd.Intn(repReplicas)
			}
		}
		clk := sim.NewClock()
		st, err := r.wire.Attach(cluster.ClientAddrBase + ether.Addr(i))
		if err != nil {
			return nil, err
		}
		st.SetClock(clk)
		name := fmt.Sprintf("client%02d", i)
		st.SetRecorder(recorder(r.recs, name))
		a := &actor{traced: cfg.traced}
		r.actors = append(r.actors, a)
		r.clocks = append(r.clocks, clk)
		r.acked[i] = map[string][]byte{}
		r.eng.Add(fleet.MachineConfig{
			Name:    name,
			Clock:   clk,
			Station: st,
			StartAt: time.Duration(i+1) * repStagger,
			Program: r.client(i, a, clk, st, skips),
		})
	}
	return r, nil
}

func repGeometry() disk.Geometry {
	g := disk.Diablo31()
	g.Name = "Diablo31/14"
	g.Cylinders = 14
	return g
}

// client stores every file, then overwrites some of them (skipping a
// replica where told to), then closes its sessions. Each group store is one
// operation and closing the sessions is one more; a failure ends the client
// and fails the operations it had left.
func (r *site) client(i int, a *actor, clk *sim.Clock, st *ether.Station, skips []int) func(*fleet.Machine) error {
	log := &r.logs[i]
	return func(m *fleet.Machine) error {
		a.begin(m)
		defer a.end()
		cl := cluster.NewClient(r.c.Place, pup.NewEndpoint(st, pup.Config{
			Seed:       mix(r.seed, 100+uint64(i)),
			MaxRTO:     time.Second,
			MaxRetries: 300,
		}))
		done := 0
		store := func(f, v int) bool {
			name := repName(i, f)
			data := repPayload(r.seed, i, f, v)
			start := clk.Now()
			if err := cl.Store(name, data, a.wait); err != nil {
				log.fail(start, repOps-done, fmt.Errorf("client%02d store %s v%d: %w", i, name, v, err))
				// A failed group store leaves the copies undefined.
				delete(r.acked[i], name)
				return false
			}
			log.ok(start, clk.Now())
			r.acked[i][name] = data
			done++
			return true
		}
		for f := 0; f < repFiles; f++ {
			if !store(f, 1) {
				return nil
			}
		}
		for f := 0; f < repOverwrites; f++ {
			if skip := skips[f]; skip >= 0 {
				cl.SetSkip(func(_, replica int) bool { return replica == skip })
			}
			if !store(f, 2) {
				return nil
			}
			cl.SetSkip(nil)
		}
		start := clk.Now()
		for _, fc := range cl.Close() { // counted like fanin's close
			if err := a.closed(fc); err != nil {
				log.fail(start, 1, fmt.Errorf("client%02d close: %w", i, err))
				return nil
			}
		}
		log.done()
		return nil
	}
}

func (r *replicasRig) run() *outcome {
	o := newOutcome()
	var fs fleetStats
	var tt traceTotals
	var auditSim, auditRun time.Duration
	rounds, heals, auditFailed := 0, 0, 0
	var divergent int64
	var ends []float64
	var loads, audits []float64
	var unfinished []string
	for i, st := range r.sites {
		end, res := st.run(o, &fs, r.auditor)
		ends = append(ends, float64(end))
		loads = append(loads, (end - res.sim).Seconds())
		audits = append(audits, res.sim.Seconds())
		auditRun += res.run
		auditSim += res.sim
		auditFailed += res.failed
		divergent += res.divergent
		if res.failed > 0 {
			unfinished = append(unfinished, fmt.Sprintf("%s (%d, audit phase %.6g sim s)", st.name, res.failed, res.sim.Seconds()))
		}
		wireReport(o, st.wire, st.faults)
		var drives []*disk.Drive
		var stats []fileserver.Stats
		for _, rp := range st.c.Replicas {
			drives = append(drives, rp.Drive())
			stats = append(stats, rp.Server().Stats())
			rounds += rp.Rounds()
			heals += rp.Heals()
		}
		diskReport(o, drives...)
		serverReport(o, stats...)
		if r.cfg.traced {
			tt.add(st.recs)
		}
		r.sites[i] = nil // let the collector have its packs while the rest run
	}

	// The makespan is the median site's. A site's audit phase runs in steps
	// of about 300 simulated seconds (a peer call that exhausts its 300
	// one-second retries), so a sum over sites moves with the seed far more
	// than the median does.
	o.sim = time.Duration(median(ends))
	o.notes = append(o.notes, fmt.Sprintf("%d sites: median load phase %.6g sim s, median audit phase %.6g sim s", len(r.sites), median(loads), median(audits)))
	o.notes = append(o.notes, fmt.Sprintf("sites with unfinished audits: %d: %s", len(unfinished), strings.Join(unfinished, ", ")))
	fs.report(o, r.cfg.traced)
	o.count("cluster.audit_rounds", int64(rounds))
	o.count("cluster.heals", int64(heals))
	o.count("cluster.divergences", divergent)
	o.count("cluster.audit_failed", int64(auditFailed))
	o.fields = append(o.fields, field{"cluster.audit_sim_ns", int64(auditSim)})
	o.layer["cluster.audit_sim_s"] = auditSim.Seconds()
	if r.cfg.traced {
		o.layer["cluster.audit_run_s"] = auditRun.Seconds()
		tt.report(o)
	}
	return o
}

// auditResult is what one site's audit phase gives the iteration.
type auditResult struct {
	sim       time.Duration // simulated length of the audit phase
	run       time.Duration // host time of its Engine.Run
	failed    int           // replicas whose audit did not finish
	divergent int64
}

// run runs the site's load phase, strikes rot, runs the audit phase, and
// checks every copy, adding the site's operations to o. It returns the
// site's makespan.
func (r *site) run(o *outcome, fs *fleetStats, auditor auditorFunc) (time.Duration, auditResult) {
	var res auditResult

	// Load phase.
	t := time.Now()
	err := r.eng.Run()
	fs.add(r.eng, time.Since(t), r.actors)
	if err != nil {
		o.failure("%s load phase: %v", r.name, err)
	}
	var loadEnd time.Duration
	for _, c := range r.clocks {
		loadEnd = max(loadEnd, c.Now())
	}
	for _, rp := range r.c.Replicas {
		loadEnd = max(loadEnd, rp.Clock().Now())
	}

	// Rot strikes one seeded replica per shard, on user-data sectors only.
	rotted := 0
	rnd := sim.NewRand(mix(r.seed, 3))
	for s := 0; s < repShards; s++ {
		victim := r.c.Replicas[s*repReplicas+rnd.Intn(repReplicas)]
		struck := victim.Drive().Rot(sim.NewRand(mix(r.seed, 10+uint64(s))), repRotSectors,
			func(lbl disk.Label) bool {
				return !lbl.FID.IsDirectory() && lbl.FID >= disk.FirstUserFID && lbl.PageNum >= 1
			})
		rotted += len(struck)
	}
	o.count("rot.sectors", int64(rotted))

	// Audit phase: every replica is a scavenging daemon until the fleet
	// drains.
	eng := fleet.New(fleet.Workers(r.cfg.workers), fleet.Medium(r.wire))
	auditors := make([]*actor, len(r.c.Replicas))
	for g, rp := range r.c.Replicas {
		startAt := rp.Clock().Now() + 10*time.Millisecond + time.Duration(g)*repAuditStagger
		auditors[g] = &actor{traced: r.cfg.traced, deadline: loadEnd + repAuditDeadline}
		eng.Add(fleet.MachineConfig{
			Name:     rp.Name(),
			Clock:    rp.Clock(),
			Stations: rp.Stations(),
			Daemon:   true,
			StartAt:  startAt,
			Program:  auditor(rp, startAt, auditors[g]),
		})
	}
	t = time.Now()
	auditErr := eng.Run()
	res.run = time.Since(t)
	fs.add(eng, res.run, auditors)
	if auditErr != nil {
		o.failure("%s audit phase: %v", r.name, auditErr)
	}
	end := loadEnd
	for _, rp := range r.c.Replicas {
		end = max(end, rp.Clock().Now())
	}
	res.sim = end - loadEnd

	// Every client's stores count as operations; so does every replica's
	// audit, which fails when the replica did not return on drain. Audits
	// add no latency sample: they have no user waiting on them.
	for i := range r.logs {
		r.logs[i].settle(repOps, r.clocks[i].Now())
		o.merge(&r.logs[i], end)
	}
	for g, a := range auditors {
		res.divergent += int64(a.divergent)
		o.attempted++
		if !a.exited {
			res.failed++
			o.failed++
			o.failure("%s %s: audit did not finish", r.name, r.c.Replicas[g].Name())
		}
	}

	// Every copy of every file must hold the last acknowledged write; each
	// copy checked counts as an operation. A copy that does not is wrong if
	// the audit finished, and an unfinished repair (a failed operation) if
	// it did not.
	for i := 0; i < repClients; i++ {
		for f := 0; f < repFiles; f++ {
			name := repName(i, f)
			want, ok := r.acked[i][name]
			if !ok {
				continue
			}
			shard := r.c.Place.Shard(name)
			for idx := 0; idx < repReplicas; idx++ {
				rp := r.c.Replicas[shard*repReplicas+idx]
				o.attempted++
				got, err := cluster.ReadLocal(rp.FS(), name)
				if err == nil && bytes.Equal(got, want) {
					continue
				}
				msg := fmt.Sprintf("%s %s on %s: does not hold the last acknowledged write (err %v)", r.name, name, rp.Name(), err)
				if auditErr == nil {
					o.incorrect("%s", msg)
				} else {
					o.failed++
					o.failure("%s", msg)
				}
			}
		}
	}
	return end, res
}
