package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"altoos/internal/cluster"
	"altoos/internal/fleet"
)

// heldOutSeed is a seed the benchmark's workloads were not tuned on. A gain
// claimed on the benchmark can be re-checked here.
const heldOutSeed = 2_000_003

func runOnce(t *testing.T, name string, cfg config) *outcome {
	t.Helper()
	o, err := iterate(workloads[name], cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return o
}

// TestDigestRepeatsAcrossRunsAndWidths: every simulated result repeats
// exactly across two runs, across fleet widths 1 and 2, and with tracing on,
// so a change that touches only host cost can show it left the model alone.
func TestDigestRepeatsAcrossRunsAndWidths(t *testing.T) {
	for _, name := range []string{"fanin", "replicas", "pack"} {
		t.Run(name, func(t *testing.T) {
			base := runOnce(t, name, config{seed: 1, workers: 2})
			for _, cfg := range []config{
				{seed: 1, workers: 2},
				{seed: 1, workers: 1},
				{seed: 1, workers: 1, traced: true},
			} {
				if o := runOnce(t, name, cfg); o.digest() != base.digest() {
					t.Errorf("workers %d traced %v: sim_digest %s, want %s", cfg.workers, cfg.traced, o.digest(), base.digest())
				}
			}
			if o := runOnce(t, name, config{seed: 3, workers: 2}); o.digest() == base.digest() {
				t.Errorf("seeds 1 and 3 gave the same sim_digest %s: the seed does not reach the inputs", o.digest())
			}
		})
	}
}

// TestAuditProgramMatchesCluster: the benchmark routes the audit daemons'
// parks through its actors, to time them and to cut an audit off at its
// deadline. Short of the deadline the schedule must be exactly the one
// cluster.Replica.AuditProgram gives; on seed 1 no audit reaches it.
func TestAuditProgramMatchesCluster(t *testing.T) {
	cfg := config{seed: 1, workers: 2}
	mine := runOnce(t, "replicas", cfg)
	for _, e := range mine.errs {
		if strings.Contains(e, "audit still running") {
			t.Fatalf("seed 1 reaches the audit deadline, so the schedules cannot be compared: %s", e)
		}
	}

	r, err := replicasSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := r.(*replicasRig)
	rig.auditor = func(rp *cluster.Replica, startAt time.Duration, a *actor) func(*fleet.Machine) error {
		prog := rp.AuditProgram(startAt)
		return func(m *fleet.Machine) error {
			err := prog(m)
			a.exited = err == nil
			return err
		}
	}
	theirs := rig.run()
	// The native program does not report divergences to the benchmark.
	strip := func(o *outcome) *outcome {
		c := *o
		c.fields = slices.DeleteFunc(slices.Clone(o.fields), func(f field) bool { return f.name == "cluster.divergences" })
		return &c
	}
	if a, b := strip(mine).digest(), strip(theirs).digest(); a != b {
		t.Errorf("audit schedule differs from cluster.Replica.AuditProgram: digest %s, want %s", a, b)
	}
}

// TestAuditDeadline: an audit still running at its deadline ends its site's
// audit phase, and every audit it left unfinished counts as a failed
// operation. Copies left stale count as failed too, not as wrong outputs.
func TestAuditDeadline(t *testing.T) {
	r, err := replicasSetup(config{seed: 1, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rig := r.(*replicasRig)
	rig.sites = rig.sites[:1]
	rig.auditor = func(rp *cluster.Replica, startAt time.Duration, a *actor) func(*fleet.Machine) error {
		a.deadline = startAt + time.Second
		return a.auditProgram(rp, startAt, repAuditInterval, repAuditQuiet)
	}
	o := rig.run()
	for _, w := range o.wrong {
		t.Errorf("wrong output: %s", w)
	}
	if !slices.ContainsFunc(o.errs, func(e string) bool { return strings.Contains(e, "audit still running") }) {
		t.Fatalf("no audit reached a deadline one simulated second after its start: %v", o.errs)
	}
	if got, want := o.layer["cluster.audit_failed"], float64(repShards*repReplicas); got != want {
		t.Errorf("cluster.audit_failed = %v, want %v: the engine stops every auditor", got, want)
	}
	if o.failed < repShards*repReplicas {
		t.Errorf("%d operations failed, want at least the %d unfinished audits", o.failed, repShards*repReplicas)
	}
}

// TestHeldOutSeed runs every workload once on a seed the benchmark was not
// tuned on. Wrong outputs fail the test; failed operations are reported in
// the log, never skipped, so a known defect stays visible.
func TestHeldOutSeed(t *testing.T) {
	for _, name := range []string{"fanin", "replicas", "pack"} {
		t.Run(name, func(t *testing.T) {
			o := runOnce(t, name, config{seed: heldOutSeed, workers: 2})
			for _, w := range o.wrong {
				t.Errorf("wrong output: %s", w)
			}
			if o.attempted == 0 {
				t.Fatalf("no operations attempted")
			}
			p50, tail, pct, beyond := o.latencies()
			t.Logf("seed %d: %d attempted, %d failed; sim %.6g s; p50 %.6g sim ms, p%s %.6g sim ms (%d beyond)",
				heldOutSeed, o.attempted, o.failed, o.sim.Seconds(), p50, pct, tail, beyond)
			for _, e := range o.errs {
				t.Logf("FAILED: %s", e)
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram: the metrics and workloads the program
// prints are exactly those BENCHMARK.json declares.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a registered workload", w.Name)
		}
	}
	same := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames string
		want   string
	}{
		{"runtime.futex runtime.futexsleep altoos/internal/fleet.(*Engine).stepAt", "fleet"},
		{"altoos/internal/sim.(*Clock).Now altoos/internal/disk.(*Drive).do", "disk"},
		{"runtime.mallocgc altoos/internal/pup.(*Conn).transmit altoos/internal/fileserver.(*Client).Poll", "pup"},
		{"sync.(*Mutex).Lock altoos/internal/trace.(*Recorder).Add", "trace"},
		{"time.Now main.(*actor).poll altoos/internal/fleet.(*Machine).invoke", "other"},
		{"runtime.scanobject runtime.gcDrain runtime.gcBgMarkWorker", "runtime"},
		{"altoos/internal/scope.Merge main.traceReport", "other"},
	} {
		if got := layerOf(strings.Fields(c.frames)); got != c.want {
			t.Errorf("layerOf(%s) = %s, want %s", c.frames, got, c.want)
		}
	}
}
