package experiments

import (
	"fmt"
	"testing"

	"altoos/internal/trace"
)

// TestE15ClusterAudit runs the cluster experiment at a reduced client count
// and checks the headline acceptance: zero files lost, zero bytes corrupted,
// every manufactured divergence detected and healed within a few rounds.
func TestE15ClusterAudit(t *testing.T) {
	r, err := e15Cluster(8, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(t, r, "files_lost", 0, 0)
	check(t, r, "bytes_corrupted", 0, 0)
	check(t, r, "machines", 20, 20)
	if r.Metrics["divergence_detected"] < 1 {
		t.Error("rot and skipped overwrites produced no detected divergence")
	}
	if r.Metrics["heals"] < 1 {
		t.Error("divergence was detected but nothing healed")
	}
	if rounds := r.Metrics["audit_rounds_to_heal"]; rounds < 1 || rounds > 10 {
		t.Errorf("audit_rounds_to_heal = %v, want within [1, 10]", rounds)
	}
	if r.Metrics["retransmits"] < 1 {
		t.Error("a wire losing 10% of its packets produced no retransmissions")
	}
}

// TestE15SeedSweep holds the published claim to more than the published
// seed: at the default client count, the run with every seed offset by k
// must finish its audit and end with nothing lost or corrupted, for each k
// of a fixed list that starts at the published run.
func TestE15SeedSweep(t *testing.T) {
	for k := 0; k < 16; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			r, err := e15Cluster(e15Clients, k, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, r, "files_lost", 0, 0)
			check(t, r, "bytes_corrupted", 0, 0)
		})
	}
}

// TestE15Determinism pins the cluster's replay claim: every machine's trace
// — every audit round, every heal, every packet of a two-phase run — and
// every metric are byte-identical across repeated runs and widths, at the
// reduced client counts of the former cluster gate (6) and its self-test (4).
func TestE15Determinism(t *testing.T) {
	for _, clients := range []int{6, 4} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			base, err := checkDeterminism(func(workers int, machine func(string) *trace.Recorder) (*Result, error) {
				return e15Cluster(clients, 0, workers, machine)
			}, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			if len(base.events("shard0/r0")) == 0 {
				t.Fatal("no replica event stream in the snapshot — tracing is not wired in")
			}
		})
	}
}
