package experiments

import (
	"errors"
	"strings"
	"testing"

	"altoos/internal/trace"
)

// events returns the named machine's events (nil if it recorded none).
func (s *snapshot) events(name string) []trace.Event {
	for _, st := range s.streams {
		if st.name == name {
			return st.events
		}
	}
	return nil
}

// TestCheckDeterminismNamesDivergence proves the gate can fail: a run whose
// third event on one machine depends on how often it has been called
// diverges on the second run, and the error names the run, the machine and
// the event.
func TestCheckDeterminismNamesDivergence(t *testing.T) {
	calls := 0
	flaky := func(_ int, machine func(string) *trace.Recorder) (*Result, error) {
		calls++
		steady, drifty := machine("steady"), machine("drifty")
		for i := int64(0); i < 4; i++ {
			steady.Emit(0, trace.KindDiskOp, "read", i, 0)
			a0 := i
			if i == 2 {
				a0 = int64(calls)
			}
			drifty.Emit(0, trace.KindDiskOp, "write", a0, 0)
		}
		return &Result{Metrics: map[string]float64{"ops": 8}}, nil
	}
	_, err := checkDeterminism(flaky, 64)
	if err == nil {
		t.Fatal("a nondeterministic run passed the determinism check")
	}
	for _, want := range []string{"run 2 (workers=1)", "machine drifty, event 2", "A0:2", "A0:1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestCheckDeterminismNamesCounterDivergence proves the snapshot half of the
// gate can fail: two machines record identical events on every run, but one
// bumps a counter by how often it has been called, and the error names the
// machine and the counter line.
func TestCheckDeterminismNamesCounterDivergence(t *testing.T) {
	calls := 0
	flaky := func(_ int, machine func(string) *trace.Recorder) (*Result, error) {
		calls++
		for _, name := range []string{"steady", "drifty"} {
			rec := machine(name)
			rec.Emit(0, trace.KindDiskOp, "read", 1, 0)
			rec.Add("disk.ops", 1)
		}
		machine("drifty").Add("disk.retries", int64(calls))
		return &Result{Metrics: map[string]float64{"ops": 2}}, nil
	}
	_, err := checkDeterminism(flaky, 64)
	if err == nil {
		t.Fatal("a run whose counters drift passed the determinism check")
	}
	for _, want := range []string{"run 2 (workers=1)", "machine drifty, metrics line", "disk.retries 2", "disk.retries 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestTracesAreByteIdentical runs the replay gate over the experiments that
// cover every traced layer at tier-1 cost: the disk (e1, e2), fault
// injection and the Scavenger (e8), the file server under loss (e10), the
// crash explorer (e12) and the saturated wire (e13).
func TestTracesAreByteIdentical(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e8", "e10", "e12", "e13"} {
		t.Run(id, func(t *testing.T) {
			if err := CheckDeterminism(id, 1<<14); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoundRobinOrder: machines poll once per round in order, and the run
// stops after the round in which done first holds.
func TestRoundRobinOrder(t *testing.T) {
	var order []string
	var polls []func() error
	for _, name := range []string{"a", "b", "c"} {
		polls = append(polls, func() error {
			order = append(order, name)
			return nil
		})
	}
	rounds := 0
	done := func() bool {
		rounds++
		return rounds == 3
	}
	if err := roundRobin(10, done, polls...); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, ""), "abcabcabc"; got != want {
		t.Fatalf("poll order %q, want %q", got, want)
	}
}

// TestRoundRobinErrorStopsRound: an error mid-round returns at once — the
// machines after the failer in that round are not polled again.
func TestRoundRobinErrorStopsRound(t *testing.T) {
	boom := errors.New("boom")
	fails, after := 0, 0
	failer := func() error {
		fails++
		if fails == 2 {
			return boom
		}
		return nil
	}
	counter := func() error {
		after++
		return nil
	}
	if err := roundRobin(10, func() bool { return false }, failer, counter); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if after != 1 {
		t.Fatalf("machine after the failer polled %d times, want 1 (round 2 must not reach it)", after)
	}
}

// TestRoundRobinCap: a run that never finishes reports errRoundCap.
func TestRoundRobinCap(t *testing.T) {
	polled := 0
	poll := func() error {
		polled++
		return nil
	}
	if err := roundRobin(10, func() bool { return false }, poll); !errors.Is(err, errRoundCap) {
		t.Fatalf("err = %v, want errRoundCap", err)
	}
	if polled != 10 {
		t.Fatalf("polled %d rounds, want the budget of 10", polled)
	}
}
