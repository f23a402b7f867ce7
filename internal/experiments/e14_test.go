package experiments

import (
	"testing"

	"altoos/internal/trace"
)

func TestE14FleetFanIn(t *testing.T) {
	r := mustRun(t, "e14")
	// The run errors internally on any corrupted journal page or network
	// payload; the metrics guard the shape. A hundred clients against one
	// disk-bound server queue up minutes of simulated time; the lossy wire
	// makes some retransmissions necessary, the queue itself must not.
	check(t, r, "machines", 101, 101)
	check(t, r, "sim_seconds", 10, 1000)
	check(t, r, "scheduler_steps", 1000, 10_000_000)
	// A window runs at least one machine, so windows never outnumber
	// activations.
	check(t, r, "scheduler_windows", 1000, r.Metrics["scheduler_steps"])
	check(t, r, "bytes_moved", 100_000, 200_000)
	if r.Metrics["retransmits"] < 1 {
		t.Error("a lossy wire produced no retransmissions")
	}

	// A backlog must not turn into retransmissions: a server busy on one
	// session's disk work still acknowledges the others, so five times the
	// clients must not cost more retransmissions per client.
	small, err := e14FanIn(20, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	perSmall := small.Metrics["retransmits"] / 20
	perFull := r.Metrics["retransmits"] / e14Machines
	if perFull > perSmall {
		t.Errorf("retransmits per client: %.1f at %d clients, %.1f at 20 — the server's backlog is timing clients out",
			perFull, e14Machines, perSmall)
	}
}

// TestE14Determinism is the subsystem's acceptance gate: every machine's
// trace and every metric of a 20-Alto fan-in are byte-identical across
// repeated runs and across worker-pool widths.
func TestE14Determinism(t *testing.T) {
	base, err := checkDeterminism(func(workers int, machine func(string) *trace.Recorder) (*Result, error) {
		return e14FanIn(20, workers, machine)
	}, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.events("server")) == 0 {
		t.Fatal("no server event stream in the snapshot — tracing is not wired in")
	}
}
