// Command benchdiff compares the repo's two most recent benchmark snapshots
// (BENCH_*.txt, as written by `make bench`) and fails when a simulated-time
// metric regresses. The point is to separate the two kinds of numbers a
// benchmark line carries: host-dependent costs (ns/op, B/op, allocs/op vary
// with the machine and the Go release) and modelled quantities
// (scavenge_seconds, words_per_sec, overhead revolutions), which are
// statements about the reproduced system and must never quietly get worse.
//
// Usage:
//
//	benchdiff [-dir path] [-tolerance pct] [old.txt new.txt]
//
// With no file arguments the two lexically-latest BENCH_*.txt files in the
// directory are compared (the dated naming makes lexical order
// chronological). Fewer than two snapshots is not an error — there is
// nothing to compare, and a fresh checkout must still pass `make check`.
// Exit status: 0 comparable or nothing to compare, 1 on regression, 2 on
// usage or parse errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory holding BENCH_*.txt snapshots")
	tol := fs.Float64("tolerance", 2.0, "percent worsening tolerated before failing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var oldPath, newPath string
	switch fs.NArg() {
	case 0:
		snaps, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.txt"))
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		if len(snaps) < 2 {
			fmt.Fprintf(stdout, "benchdiff: %d snapshot(s) in %s; nothing to compare\n", len(snaps), *dir)
			return 0
		}
		sort.Strings(snaps)
		oldPath, newPath = snaps[len(snaps)-2], snaps[len(snaps)-1]
	case 2:
		oldPath, newPath = fs.Arg(0), fs.Arg(1)
	default:
		fmt.Fprintln(stderr, "benchdiff: want no file arguments or exactly two")
		return 2
	}

	old, err := parseSnapshot(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	cur, err := parseSnapshot(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "benchdiff: %s -> %s\n", filepath.Base(oldPath), filepath.Base(newPath))
	regressions := 0
	for _, bench := range sortedKeys(old) {
		newMetrics, ok := cur[bench]
		if !ok {
			fmt.Fprintf(stdout, "  %s: gone from the new snapshot\n", bench)
			regressions++
			continue
		}
		for _, unit := range sortedKeys(old[bench]) {
			was := old[bench][unit]
			dir := direction(unit)
			if dir == hostDependent {
				continue
			}
			now, ok := newMetrics[unit]
			if !ok {
				fmt.Fprintf(stdout, "  %s %s: metric gone from the new snapshot\n", bench, unit)
				regressions++
				continue
			}
			worse := worsening(was, now, dir)
			eff := *tol
			if wallCoupled(unit) && eff < 50 {
				eff = 50
			}
			switch {
			case dir == exact:
				if was != now {
					fmt.Fprintf(stdout, "  %s %s: %g -> %g (exact metric moved) REGRESSION\n",
						bench, unit, was, now)
					regressions++
				}
			case dir == informational:
				// Report direction-free metrics only when they moved.
				if was != now {
					fmt.Fprintf(stdout, "  %s %s: %g -> %g (informational)\n", bench, unit, was, now)
				}
			case worse > eff:
				fmt.Fprintf(stdout, "  %s %s: %g -> %g (%.1f%% worse) REGRESSION\n",
					bench, unit, was, now, worse)
				regressions++
			case was != now:
				fmt.Fprintf(stdout, "  %s %s: %g -> %g ok\n", bench, unit, was, now)
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d simulated-time regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: no simulated-time regressions")
	return 0
}

// metricDir classifies a metric unit.
type metricDir int

const (
	hostDependent metricDir = iota // skipped: measures the host, not the model
	lowerBetter
	higherBetter
	informational // compared but never failing: ablation baselines, constants
	exact         // may not move at all: any change is a behavior change
)

// direction classifies by unit name. The snapshots' units are the repo's own
// b.ReportMetric names plus the testing package's standard ones, so keyword
// matching on the unit string is reliable.
func direction(unit string) metricDir {
	switch unit {
	case "ns/op", "B/op", "allocs/op", "MB/s":
		return hostDependent
	}
	// Exact metrics are pure functions of a deterministic schedule — the
	// cluster audit's divergence ledger — so any movement at all is a
	// behavior change, not a performance shift, and fails regardless of
	// tolerance.
	for _, kw := range []string{"divergence_detected"} {
		if strings.Contains(unit, kw) {
			return exact
		}
	}
	for _, kw := range []string{"per_sec", "speedup", "advantage", "_pct", "words_freed", "goodput"} {
		if strings.Contains(unit, kw) {
			return higherBetter
		}
	}
	for _, kw := range []string{"seconds", "ms", "revs", "overhead", "retries", "retransmits", "cold", "violations", "_ratio", "idle_frac", "files_lost", "bytes_corrupted", "rounds_to_heal"} {
		if strings.Contains(unit, kw) {
			return lowerBetter
		}
	}
	return informational
}

// wallCoupled reports units that mix the simulated schedule with the host's
// wall clock — the fleet engine's throughput numbers. They stay
// direction-checked (an engine regression shows up as a collapse), but with
// a far looser tolerance, because host load moves them from run to run in a
// way no simulated quantity ever moves.
func wallCoupled(unit string) bool {
	switch unit {
	case "events_per_sec", "speedup_x8":
		return true
	}
	return false
}

// worsening returns how many percent now is worse than was, given the
// metric's direction; <= 0 means no worse.
func worsening(was, now float64, dir metricDir) float64 {
	if was == 0 {
		if now == 0 {
			return 0
		}
		if dir == lowerBetter {
			return 100
		}
		return -100
	}
	change := (now - was) / was * 100
	if dir == higherBetter {
		return -change
	}
	return change
}

// parseSnapshot reads `go test -bench` output: for each Benchmark line,
// fields after the name and iteration count come in value/unit pairs.
func parseSnapshot(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcSuffix(fields[0])
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q on %s", path, fields[i], name)
			}
			metrics[fields[i+1]] = v
		}
		out[name] = metrics
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// trimProcSuffix drops the -N GOMAXPROCS suffix go test appends to benchmark
// names, so snapshots from different machines still line up.
func trimProcSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// sortedKeys returns m's keys in sorted order, for stable output.
func sortedKeys[M map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
