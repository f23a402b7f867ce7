package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// perLayer lists every per-layer metric, in the order BENCHMARK.json gives
// them. A workload that does not exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"fleet.steps", "count"},
	{"fleet.run_s", "s"},
	{"fleet.host_us_per_step", "us"},
	{"fleet.engine_share", "ratio"},
	{"ether.packets", "count"},
	{"ether.words", "count"},
	{"ether.drops", "count"},
	{"ether.corrupts", "count"},
	{"pup.retransmits", "count"},
	{"pup.retransmit_ratio", "ratio"},
	{"pup.client_poll_us", "us"},
	{"fileserver.sessions", "count"},
	{"fileserver.stores", "count"},
	{"fileserver.fetches", "count"},
	{"fileserver.digests", "count"},
	{"fileserver.server_poll_us", "us"},
	{"cluster.audit_rounds", "count"},
	{"cluster.divergences", "count"},
	{"cluster.heals", "count"},
	{"cluster.audit_sim_s", "sim_s"},
	{"cluster.audit_run_s", "s"},
	{"cluster.audit_failed", "count"},
	{"core.boot_ms", "ms"},
	{"file.write_page_us", "us"},
	{"file.read_page_us", "us"},
	{"dir.insert_us", "us"},
	{"dir.lookup_us", "us"},
	{"disk.ops", "count"},
	{"disk.chains", "count"},
	{"disk.check_fail", "count"},
	{"disk.busy_sim_s", "sim_s"},
	{"disk.do_ns", "ns"},
	{"disk.chain_ns_per_op", "ns"},
	{"scavenge.run_ms", "ms"},
	{"scavenge.compact_ms", "ms"},
	{"scavenge.run_sim_s", "sim_s"},
	{"fsck.check_ms", "ms"},
	{"crashpoint.points", "count"},
	{"crashpoint.ms_per_point", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.events", "count"},
	{"scope.merge_ms", "ms"},
}

// shareLayers are the packages the CPU profile is folded by; samples in
// none of them go to runtime (no program frame at all: GC, scheduler) or
// other.
var shareLayers = []string{"fleet", "ether", "pup", "fileserver", "cluster", "core", "file", "dir", "disk", "scavenge", "fsck", "trace"}

func init() {
	for _, l := range append(shareLayers, "runtime", "other") {
		perLayer = append(perLayer, struct{ name, unit string }{"host_share." + l, "ratio"})
	}
}

// layerReport runs the workload untraced for a third of the budget, then
// traced — per-machine recorders, call timings — for the rest, and reports
// the per-layer metrics of the traced iterations. Both runs have fleets at
// one worker and the CPU profile on, so that their CPU times differ only by
// what tracing costs; only the traced run's profile is folded. Both must
// reproduce the same simulated results: the digest does not depend on
// tracing.
func layerReport(w *workload, seed uint64, budget time.Duration, scratch string) (*report, error) {
	rep := newReport(w, seed)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	profiled := func(name string, cfg config, budget time.Duration) ([]*outcome, string, error) {
		path := filepath.Join(scratch, fmt.Sprintf("hostbench-%s-%s-%d.pprof", w.name, name, os.Getpid()))
		f, err := os.Create(path)
		if err != nil {
			return nil, "", err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(path)
			return nil, "", err
		}
		its, err := measure(w, cfg, budget)
		pprof.StopCPUProfile()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
			return nil, "", err
		}
		return its, path, nil
	}
	plain, path, err := profiled("plain", config{seed: seed, workers: 1}, budget/3)
	if err != nil {
		return nil, err
	}
	os.Remove(path) // profiled only so that both runs pay the profiler alike
	traced, path, err := profiled("traced", config{seed: seed, workers: 1, traced: true}, budget-budget/3)
	if err != nil {
		return nil, err
	}
	prof, err := foldProfile(path)
	os.Remove(path)
	if err != nil {
		return nil, err
	}

	first := plain[0]
	for i, it := range plain {
		rep.check(first, it, fmt.Sprintf("untraced iteration %d", i+1))
	}
	for i, it := range traced {
		rep.check(first, it, fmt.Sprintf("traced iteration %d", i+1))
	}
	rep.Attempted, rep.Failed = first.attempted, first.failed
	rep.note("%d untraced and %d traced iterations, fleets at 1 worker, CPU profile on", len(plain), len(traced))
	rep.simSummary(first)
	var total float64 // host time of pack's phases; other workloads have none
	secs := make([]float64, len(packPhases))
	for i, name := range packPhases {
		secs[i] = medianOf(traced, func(o *outcome) float64 { return o.layer["phase."+name+"_s"] })
		total += secs[i]
	}
	var parts []string
	if total > 0 {
		for i, name := range packPhases {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", name, 100*secs[i]/total))
		}
		rep.note("phase share of host time: %s", strings.Join(parts, ", "))
	}
	parts = parts[:0]
	for _, fn := range inclusive {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", fn, 100*prof.inclusive[fn]))
	}
	rep.note("profile, inclusive: %s", strings.Join(parts, ", "))

	cpu := func(o *outcome) float64 { return o.cpu.Seconds() }
	for _, m := range perLayer {
		var v float64
		switch {
		case m.name == "trace.overhead_frac":
			v = medianOf(traced, cpu)/medianOf(plain, cpu) - 1
		case strings.HasPrefix(m.name, "host_share."):
			v = prof.shares[strings.TrimPrefix(m.name, "host_share.")]
		default:
			v = medianOf(traced, func(o *outcome) float64 { return o.layer[m.name] })
		}
		rep.set(m.name, v, m.unit)
	}
	return rep, nil
}

// inclusive names the functions whose inclusive share of the profile a
// traced run prints: the hot spots of the scavenge, compaction and crash
// experiments (E3, E4, E12), for reading pack against them.
var inclusive = []string{
	"altoos/internal/disk.(*Drive).DoChain",
	"altoos/internal/scavenge.(*scavenger).sweep",
	"altoos/internal/scavenge.Compact",
	"altoos/internal/fsck.Check",
}

// layerOf attributes one profile sample, frames leaf first: to the
// innermost frame in one of shareLayers, or to other at the innermost frame
// of the benchmark's own code; a sample with no frame outside the Go
// runtime (GC, scheduler) is the runtime's, anything else other. A layer's
// share therefore includes the runtime work (allocation, channel handoff)
// it calls for.
func layerOf(frames []string) string {
	program := false
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "altoos/internal/"); ok {
			program = true
			if pkg, _, _ := strings.Cut(rest, "."); slices.Contains(shareLayers, pkg) {
				return pkg
			}
			continue
		}
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") && !strings.HasPrefix(fn, "internal/runtime/") {
			program = true
		}
	}
	if program {
		return "other"
	}
	return "runtime"
}

// profile is a folded CPU profile: each layer's share of the samples (see
// layerOf), and the share of samples with each of the inclusive functions
// anywhere on the stack.
type profile struct {
	shares    map[string]float64
	inclusive map[string]float64
}

// foldProfile folds a CPU profile with the toolchain's pprof.
func foldProfile(path string) (*profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	totals := map[string]time.Duration{}
	incl := map[string]time.Duration{}
	var all time.Duration
	var frames []string
	var weight time.Duration
	flush := func() {
		if len(frames) > 0 {
			totals[layerOf(frames)] += weight
			all += weight
			for _, fn := range inclusive {
				if slices.Contains(frames, fn) {
					incl[fn] += weight
				}
			}
		}
		frames, weight = frames[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 && weight == 0 {
			// The first line of a sample: its weight, then the leaf frame.
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			weight = d
			fields = fields[1:]
		}
		if len(fields) > 0 && !strings.HasSuffix(fields[0], ":") { // skip label lines
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	p := &profile{shares: map[string]float64{}, inclusive: map[string]float64{}}
	if all > 0 {
		for l, d := range totals {
			p.shares[l] = float64(d) / float64(all)
		}
		for fn, d := range incl {
			p.inclusive[fn] = float64(d) / float64(all)
		}
	}
	return p, nil
}
