package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldSnap = `goos: linux
BenchmarkE1RawTransfer 	1	2377026 ns/op	1.268 sim_seconds_64kwords	51669 words_per_sec	2834384 B/op	3513 allocs/op
BenchmarkE3Scavenge    	1	30954497 ns/op	30.76 scavenge_seconds_Diablo31	22965928 B/op	250367 allocs/op
PASS
`

func write(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCleanDiffPasses(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_2026-01-01.txt", oldSnap)
	// Simulated metrics improve, host metrics regress wildly: still clean.
	write(t, dir, "BENCH_2026-01-02.txt", `goos: linux
BenchmarkE1RawTransfer 	1	9977026 ns/op	1.268 sim_seconds_64kwords	51669 words_per_sec	9834384 B/op	9513 allocs/op
BenchmarkE3Scavenge    	1	90954497 ns/op	26.00 scavenge_seconds_Diablo31	92965928 B/op	950367 allocs/op
PASS
`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("clean diff exited %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "no simulated-time regressions") {
		t.Errorf("missing success line:\n%s", out.String())
	}
}

func TestRegressionFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_2026-01-01.txt", oldSnap)
	// scavenge_seconds worsens 10%, words_per_sec drops 10%: two regressions.
	write(t, dir, "BENCH_2026-01-02.txt", `goos: linux
BenchmarkE1RawTransfer 	1	2377026 ns/op	1.268 sim_seconds_64kwords	46502 words_per_sec	2834384 B/op	3513 allocs/op
BenchmarkE3Scavenge    	1	30954497 ns/op	33.84 scavenge_seconds_Diablo31	22965928 B/op	250367 allocs/op
PASS
`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 1 {
		t.Fatalf("regression exited %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"words_per_sec", "scavenge_seconds_Diablo31", "REGRESSION"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestToleranceAbsorbsNoise(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_2026-01-01.txt", oldSnap)
	// 1% worse is within the default 2% tolerance.
	write(t, dir, "BENCH_2026-01-02.txt", `goos: linux
BenchmarkE1RawTransfer 	1	2377026 ns/op	1.281 sim_seconds_64kwords	51669 words_per_sec	2834384 B/op	3513 allocs/op
BenchmarkE3Scavenge    	1	30954497 ns/op	30.76 scavenge_seconds_Diablo31	22965928 B/op	250367 allocs/op
PASS
`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("1%% drift exited %d, want 0 under default tolerance\n%s", code, out.String())
	}
	if code := run([]string{"-dir", dir, "-tolerance", "0.5"}, &out, &errOut); code != 1 {
		t.Errorf("1%% drift exited %d under 0.5%% tolerance, want 1", code)
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_2026-01-01.txt", oldSnap)
	write(t, dir, "BENCH_2026-01-02.txt", `goos: linux
BenchmarkE1RawTransfer 	1	2377026 ns/op	1.268 sim_seconds_64kwords	51669 words_per_sec	2834384 B/op	3513 allocs/op
PASS
`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 1 {
		t.Fatalf("dropped benchmark exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "gone from the new snapshot") {
		t.Errorf("missing-benchmark line absent:\n%s", out.String())
	}
}

func TestNothingToCompare(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_2026-01-01.txt", oldSnap)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("single snapshot exited %d, want 0", code)
	}
	if !strings.Contains(out.String(), "nothing to compare") {
		t.Errorf("missing explanation:\n%s", out.String())
	}
}

func TestDirectionTable(t *testing.T) {
	cases := map[string]metricDir{
		"ns/op":                            hostDependent,
		"B/op":                             hostDependent,
		"allocs/op":                        hostDependent,
		"scavenge_seconds_Diablo31":        lowerBetter,
		"ms/page_consecutive":              lowerBetter,
		"alloc_overhead_revs":              lowerBetter,
		"cold_ms":                          lowerBetter,
		"map_lie_retries":                  lowerBetter,
		"words_per_sec":                    higherBetter,
		"aged_speedup":                     higherBetter,
		"warm_advantage":                   higherBetter,
		"wild_writes_rejected_pct":         higherBetter,
		"max_words_freed":                  higherBetter,
		"goodput_words_per_sec_loss10":     higherBetter,
		"goodput_words_per_sec_total":      higherBetter,
		"jain_fairness_pct":                higherBetter,
		"retransmitted_words_ratio_loss20": lowerBetter,
		"wire_idle_frac_loss20":            lowerBetter,
		"files_lost":                       lowerBetter,
		"bytes_corrupted":                  lowerBetter,
		"audit_rounds_to_heal":             lowerBetter,
		"divergence_detected":              exact,
		"full_resident_words":              informational,
		"heals":                            informational,
	}
	for unit, want := range cases {
		if got := direction(unit); got != want {
			t.Errorf("direction(%q) = %v, want %v", unit, got, want)
		}
	}
}

func TestExactMetricFailsOnAnyChange(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_2026-01-01.txt", `goos: linux
BenchmarkE15ClusterAudit 	1	118214397 ns/op	0 files_lost	0 bytes_corrupted	242.0 divergence_detected	31.00 heals	1.000 audit_rounds_to_heal	855.4 sim_seconds
PASS
`)
	// divergence_detected moves by under half a percent — far inside any
	// tolerance — but it is an exact metric: the audit saw different damage,
	// which means the deterministic schedule changed.
	write(t, dir, "BENCH_2026-01-02.txt", `goos: linux
BenchmarkE15ClusterAudit 	1	118214397 ns/op	0 files_lost	0 bytes_corrupted	241.0 divergence_detected	31.00 heals	1.000 audit_rounds_to_heal	855.4 sim_seconds
PASS
`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir, "-tolerance", "50"}, &out, &errOut); code != 1 {
		t.Fatalf("exact-metric drift exited %d, want 1 even at 50%% tolerance\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "exact metric moved") {
		t.Errorf("missing exact-metric explanation:\n%s", out.String())
	}
	// A single lost file is a regression: files_lost is lower-better and the
	// old value was zero, so any increase reads as 100% worse.
	write(t, dir, "BENCH_2026-01-03.txt", `goos: linux
BenchmarkE15ClusterAudit 	1	118214397 ns/op	1.000 files_lost	0 bytes_corrupted	241.0 divergence_detected	31.00 heals	1.000 audit_rounds_to_heal	855.4 sim_seconds
PASS
`)
	out.Reset()
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 1 {
		t.Fatalf("files_lost 0 -> 1 exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "files_lost") {
		t.Errorf("missing files_lost regression line:\n%s", out.String())
	}
	// Unchanged exact and zero-held metrics stay clean.
	write(t, dir, "BENCH_2026-01-04.txt", `goos: linux
BenchmarkE15ClusterAudit 	1	918214397 ns/op	1.000 files_lost	0 bytes_corrupted	241.0 divergence_detected	31.00 heals	1.000 audit_rounds_to_heal	855.4 sim_seconds
PASS
`)
	out.Reset()
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("identical simulated metrics exited %d, want 0\n%s", code, out.String())
	}
}

func TestWallCoupledTolerance(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_2026-01-01.txt", `goos: linux
BenchmarkE14FleetFanIn 	1	937026 ns/op	158.5 sim_seconds	37730 scheduler_steps	40000 events_per_sec	1.00 speedup_x8
PASS
`)
	// Host-coupled throughput down 30%: inside the relaxed 50% band.
	write(t, dir, "BENCH_2026-01-02.txt", `goos: linux
BenchmarkE14FleetFanIn 	1	937026 ns/op	158.5 sim_seconds	37730 scheduler_steps	28000 events_per_sec	0.80 speedup_x8
PASS
`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("30%% wall-coupled drift exited %d, want 0\n%s", code, out.String())
	}
	// A collapse (70% down) is a real engine regression and must fail.
	write(t, dir, "BENCH_2026-01-03.txt", `goos: linux
BenchmarkE14FleetFanIn 	1	937026 ns/op	158.5 sim_seconds	37730 scheduler_steps	12000 events_per_sec	0.80 speedup_x8
PASS
`)
	out.Reset()
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 1 {
		t.Fatalf("70%% wall-coupled collapse exited %d, want 1\n%s", code, out.String())
	}
	// The simulated metrics keep the tight default tolerance.
	write(t, dir, "BENCH_2026-01-04.txt", `goos: linux
BenchmarkE14FleetFanIn 	1	937026 ns/op	170.0 sim_seconds	37730 scheduler_steps	12000 events_per_sec	0.80 speedup_x8
PASS
`)
	out.Reset()
	if code := run([]string{"-dir", dir, "-tolerance", "2"}, &out, &errOut); code != 1 {
		t.Fatalf("sim_seconds regression exited %d, want 1\n%s", code, out.String())
	}
}
