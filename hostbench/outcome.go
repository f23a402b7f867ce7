package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// outcome is one iteration of a workload: its host cost, its simulated
// results and the verdict of its output checks.
type outcome struct {
	// Host domain: differs from run to run.
	cpu        time.Duration
	wall       time.Duration
	allocBytes uint64
	mallocs    uint64

	// Simulated domain: a function of the workload and seed alone.
	sim       time.Duration   // makespan
	lat       []time.Duration // one per attempted user operation
	attempted int
	failed    int
	errs      []string // why operations failed
	wrong     []string // outputs that the checks found incorrect
	fields    []field  // counters and stats that go into the digest
	notes     []string // workload-specific lines for the printed table

	// layer holds the per-layer metrics: simulated counts always, host
	// timings only when the iteration ran traced.
	layer map[string]float64
}

type field struct {
	name string
	v    int64
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// count records a simulated-domain counter: it is both a per-layer metric,
// summed over the calls, and part of the digest.
func (o *outcome) count(name string, v int64) {
	o.fields = append(o.fields, field{name, v})
	o.layer[name] += float64(v)
}

func (o *outcome) failedFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// digest hashes every simulated-domain output of the iteration. Two
// iterations with the same digest took the same schedule.
func (o *outcome) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "sim %d attempted %d failed %d\n", o.sim, o.attempted, o.failed)
	for _, l := range o.lat {
		fmt.Fprintf(h, "%d\n", l)
	}
	for _, f := range o.fields {
		fmt.Fprintf(h, "%s %d\n", f.name, f.v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tailLadder is the set of percentiles the tail is chosen from.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 50}

// latencies returns the median operation latency and the highest percentile
// of the ladder that leaves at least ten samples beyond it, in simulated
// milliseconds, with that percentile's label and how many samples lie beyond.
func (o *outcome) latencies() (p50, tail float64, pct string, beyond int) {
	s := append([]time.Duration(nil), o.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0, 0, "-", 0
	}
	at := func(p float64) (float64, int) {
		rank := int(math.Ceil(p / 100 * float64(n)))
		rank = max(1, min(n, rank))
		return float64(s[rank-1]) / float64(time.Millisecond), n - rank
	}
	p50, _ = at(50)
	for _, p := range tailLadder {
		v, b := at(p)
		if b >= 10 || p == 50 {
			return p50, v, fmt.Sprint(p), b
		}
	}
	panic("unreachable")
}

// opLog is one machine's record of its user operations. A machine owns its
// log, so logs need no locking; they are merged in machine order.
type opLog struct {
	lat       []time.Duration
	open      []time.Duration // start times of operations that never completed
	attempted int
	failed    int
	errs      []string
	wrong     []string
}

// ok records an operation that completed.
func (l *opLog) ok(start, end time.Duration) {
	l.attempted++
	l.lat = append(l.lat, end-start)
}

// done records an operation that completed but is not a user operation
// whose latency the benchmark reports.
func (l *opLog) done() { l.attempted++ }

// fail records n operations that did not complete — the one that failed at
// start, and the n-1 after it that were never tried.
func (l *opLog) fail(start time.Duration, n int, err error) {
	l.attempted += n
	l.failed += n
	for i := 0; i < n; i++ {
		l.open = append(l.open, start)
	}
	l.errs = append(l.errs, err.Error())
}

// settle fails whatever part of n operations the log has not accounted for:
// the ones a machine was still in when the engine stopped the fleet.
func (l *opLog) settle(n int, at time.Duration) {
	if left := n - l.attempted; left > 0 {
		l.fail(at, left, fmt.Errorf("%d operations unfinished when the fleet stopped", left))
	}
}

// merge adds a log to the outcome. An operation that never completed counts
// with the latency it had reached when the workload ended: it missed every
// latency limit below that.
func (o *outcome) merge(l *opLog, end time.Duration) {
	o.lat = append(o.lat, l.lat...)
	for _, start := range l.open {
		o.lat = append(o.lat, end-start)
	}
	o.attempted += l.attempted
	o.failed += l.failed
	o.errs = append(o.errs, l.errs...)
	o.wrong = append(o.wrong, l.wrong...)
}

// failure records a failure that is not one user operation's (a whole
// fleet that stopped, say); the operations it stranded are counted by the
// machines that owned them.
func (o *outcome) failure(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// incorrect records an output that the checks found wrong.
func (o *outcome) incorrect(format string, args ...any) {
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

// mix derives a sub-seed from the workload seed, so every seeded input
// (wire faults, connection ids, payloads, skips, rot, crash points) moves
// with the seed without two of them sharing a stream.
func mix(seed, k uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + k*0xBF58476D1CE4E5B9 + 1
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}
