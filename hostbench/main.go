// Command hostbench measures what the simulator costs the host that runs it.
//
// It runs one of three workloads — fanin, replicas or pack, see README.md —
// repeatedly for a fixed number of seconds, checks every output, and prints
// a table of metrics followed by one JSON line:
//
//	{"correct": true, "attempted": 400, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time, host
// allocation, simulated makespan and operation latency). With -trace 1 the
// program also runs the workload traced — per-machine recorders, call
// timings around every layer entry, a CPU profile, fleets at one worker —
// and the metrics are the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fanin, replicas or pack")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "how long to measure, in host seconds")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		scratch = flag.String("scratch", ".bench_build", "directory for the CPU profile")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "hostbench: usage: -workload fanin|replicas|pack -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	budget := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = layerReport(w, *seed, budget, *scratch)
	} else {
		rep, err = endToEndReport(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation prints.
type report struct {
	workload  string
	seed      uint64
	lines     []string // human-readable table, printed before the JSON line
	order     []string
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport(w *workload, seed uint64) *report {
	return &report{workload: w.name, seed: seed, Correct: true, Metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(out *os.File) {
	fmt.Fprintf(out, "hostbench %s seed %d\n", r.workload, r.seed)
	for _, l := range r.lines {
		fmt.Fprintf(out, "  %s\n", l)
	}
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", b)
}

// check folds one iteration's outcome into the report's verdict: a wrong
// output clears the correct flag, and so does an iteration that does not
// reproduce the first one's simulated results exactly.
func (r *report) check(first, it *outcome, label string) {
	if it.digest() != first.digest() {
		r.Correct = false
		r.note("WRONG: %s: sim_digest %s differs from the first iteration's %s", label, it.digest(), first.digest())
	}
	for _, wr := range it.wrong {
		r.Correct = false
		r.note("WRONG: %s: %s", label, wr)
	}
}

// simSummary prints the simulated-domain results of one iteration: they are
// identical on every iteration of a run, so the first stands for all.
func (r *report) simSummary(o *outcome) {
	r.note("sim_digest %s", o.digest())
	for _, n := range o.notes {
		r.note("%s", n)
	}
	r.note("operations: %d attempted, %d failed (failed_frac %.6g)", o.attempted, o.failed, o.failedFrac())
	p50, tail, pct, beyond := o.latencies()
	r.note("latency: p50 %.6g sim ms, p%s %.6g sim ms (%d samples, %d beyond)", p50, pct, tail, len(o.lat), beyond)
	for i, e := range o.errs {
		if i == 8 {
			r.note("FAILED: ... %d more", len(o.errs)-i)
			break
		}
		r.note("FAILED: %s", e)
	}
}

// endToEnd lists the end-to-end metrics, in the order BENCHMARK.json gives
// them. ok_frac is one minus the failed fraction: a metric here must never
// read 0. Host time is CPU time (see cpuTime); wall time is printed in the
// table but not gated, because neighbours on a shared host move it by more
// than any useful bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"host_alloc_mb", "MB"},
	{"host_mallocs_k", "k"},
	{"ok_frac", "ratio"},
	{"sim_s", "sim_s"},
	{"op_p50_sim_ms", "sim_ms"},
	{"op_tail_sim_ms", "sim_ms"},
}

// endToEndReport runs the workload untraced, at its production fleet width,
// until the budget is spent, and reports medians over the iterations. It
// then times set-up on its own (see timeSetups).
func endToEndReport(w *workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport(w, seed)
	cfg := config{seed: seed, workers: 2}
	its, err := measure(w, cfg, budget)
	if err != nil {
		return nil, err
	}
	setups, err := timeSetups(w, cfg)
	if err != nil {
		return nil, err
	}
	first := its[0]
	for i, it := range its {
		rep.check(first, it, fmt.Sprintf("iteration %d", i+1))
	}
	rep.Attempted, rep.Failed = first.attempted, first.failed
	rep.note("%d iterations, %d set-ups timed alone", len(its), len(setups))
	walls := make([]string, len(its))
	for i, o := range its {
		walls[i] = fmt.Sprintf("%.4g/%.4g", o.cpu.Seconds(), o.wall.Seconds())
	}
	rep.note("cpu/wall per iteration (s): %s", strings.Join(walls, " "))
	rep.note("wall_s %.6g s (median host wall time of the measured phase)", medianOf(its, func(o *outcome) float64 { return o.wall.Seconds() }))
	rep.simSummary(first)
	p50, tail, _, _ := first.latencies()
	values := map[string]float64{
		"setup_s":        median(setups),
		"cpu_s":          medianOf(its, func(o *outcome) float64 { return o.cpu.Seconds() }),
		"host_alloc_mb":  medianOf(its, func(o *outcome) float64 { return float64(o.allocBytes) / 1e6 }),
		"host_mallocs_k": medianOf(its, func(o *outcome) float64 { return float64(o.mallocs) / 1e3 }),
		"ok_frac":        1 - first.failedFrac(),
		"sim_s":          first.sim.Seconds(),
		"op_p50_sim_ms":  p50,
		"op_tail_sim_ms": tail,
	}
	for _, m := range endToEnd {
		rep.set(m.name, values[m.name], m.unit)
	}
	return rep, nil
}

// measure builds a rig and runs its measured phase: once, then again while
// one more iteration as long as the last still fits the budget.
func measure(w *workload, cfg config, budget time.Duration) ([]*outcome, error) {
	var its []*outcome
	start := time.Now()
	for len(its) == 0 || time.Since(start)+its[len(its)-1].wall <= budget {
		o, err := iterate(w, cfg)
		if err != nil {
			return nil, err
		}
		its = append(its, o)
	}
	return its, nil
}

// setupSamples is how many set-ups timeSetups times.
const setupSamples = 21

// timeSetups times set-ups one at a time, each on a heap handed back to the
// operating system and with the collector paused, and returns their CPU
// times. Set-up allocates megabytes on a heap that is otherwise nearly
// empty. Timed in back-to-back batches instead, every set-up paid about one
// collection, and page faults only when the runtime happened to have
// released memory: pack's figure moved by half its median over seven runs.
func timeSetups(w *workload, cfg config) ([]float64, error) {
	out := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		debug.FreeOSMemory()
		gc := debug.SetGCPercent(-1)
		c0 := cpuTime()
		_, err := w.setup(cfg)
		d := cpuTime() - c0
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// iterate builds a fresh rig and runs the measured phase on it once,
// recording the phase's CPU time, wall time and allocation.
func iterate(w *workload, cfg config) (*outcome, error) {
	runtime.GC()
	rig, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1, c1 := time.Now(), cpuTime()
	o := rig.run()
	o.cpu = cpuTime() - c1
	o.wall = time.Since(t1)
	runtime.ReadMemStats(&after)
	o.allocBytes = after.TotalAlloc - before.TotalAlloc
	o.mallocs = after.Mallocs - before.Mallocs
	return o, nil
}

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. Unlike wall time it does not grow when
// other processes, or other guests of the same host, take the CPU away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only a bad argument can fail it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(its []*outcome, f func(*outcome) float64) float64 {
	xs := make([]float64, len(its))
	for i, o := range its {
		xs[i] = f(o)
	}
	return median(xs)
}

// workloads is the benchmark's registry, filled by each workload's file.
var workloads = map[string]*workload{}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	setup func(config) (rig, error)
}

// rig is a built workload, ready for its measured phase. run is called once.
type rig interface{ run() *outcome }

// config is what an iteration is built from.
type config struct {
	seed    uint64
	workers int  // fleet and crash-explorer width
	traced  bool // per-machine recorders and call timings
}
