// altoscope runs one experiment as a fleet — every simulated machine
// recording into its own flight recorder — and merges what they saw into
// the cross-machine observability artifacts:
//
//   - <id>.trace.json: one Chrome trace_event document, one process per
//     machine on the shared simulated-time axis, causal flows drawn as
//     arrows across machines (load it at chrome://tracing or
//     https://ui.perfetto.dev);
//   - <id>.collapsed: the sim-time profile in collapsed-stack flamegraph
//     format, one leading frame per machine;
//   - <id>.profile.txt: the fleet-aggregated top table by self time;
//   - <id>.metrics.txt: each machine's counters and histograms.
//
// Every artifact is a deterministic function of the workload: byte-identical
// across runs, merge input orders and -workers counts. -check proves it by
// running everything twice and comparing, which is the make scope-check gate.
//
// Usage:
//
//	altoscope -experiment e10 -out .
//	altoscope -experiment e10 -check
//	altoscope -list
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"altoos/internal/experiments"
	"altoos/internal/scope"
	"altoos/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		experiment = flag.String("experiment", "e10", "experiment id to run (see -list)")
		out        = flag.String("out", ".", "directory for the merged artifacts")
		workers    = flag.Int("workers", 4, "parallel per-machine merge workers")
		top        = flag.Int("top", 20, "rows in the top-by-self-time table")
		events     = flag.Int("events", trace.DefaultEvents, "per-machine ring capacity in events")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		check      = flag.Bool("check", false, "run twice and fail unless all artifacts are byte-identical")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *check {
		if err := selfCheck(*experiment, *events, *top); err != nil {
			log.Fatalf("altoscope: %v", err)
		}
		fmt.Printf("scope-check ok: %s artifacts byte-identical across runs, merge orders and worker counts\n", *experiment)
		return
	}

	res, fleet, err := runFleet(*experiment, *events)
	if err != nil {
		log.Fatalf("altoscope: %v", err)
	}
	machines := fleet.Machines()
	merged := scope.Merge(machines, *workers)

	traceBytes, collapsed, topTable, err := render(merged, *top)
	if err != nil {
		log.Fatalf("altoscope: %v", err)
	}
	outputs := []struct {
		name string
		data []byte
	}{
		{*experiment + ".trace.json", traceBytes},
		{*experiment + ".collapsed", collapsed},
		{*experiment + ".profile.txt", topTable},
		{*experiment + ".metrics.txt", metricsText(machines)},
	}
	for _, o := range outputs {
		path := filepath.Join(*out, o.name)
		if err := os.WriteFile(path, o.data, 0o644); err != nil {
			log.Fatalf("altoscope: %v", err)
		}
	}

	fmt.Println(res.Table())
	fmt.Printf("fleet: %d machines", len(machines))
	for _, m := range machines {
		fmt.Printf(" %s(%d)", m.Name, m.Rec.Len())
	}
	fmt.Println()
	for _, p := range merged.MachineProfiles() {
		fmt.Printf("profile %-10s %4d spans, %10.3f ms accounted of %10.3f ms covered\n",
			p.Machine, p.Spans, float64(p.Total)/1e6, float64(p.Covered)/1e6)
	}
	fmt.Println()
	os.Stdout.Write(topTable)
	for _, o := range outputs {
		fmt.Printf("wrote %s\n", filepath.Join(*out, o.name))
	}
}

// fleetWorkers is the scheduler's pool width for fleet experiments (E14,
// E15); their artifacts are identical at any width.
const fleetWorkers = 8

// runFleet executes the experiment with one recorder per machine.
func runFleet(id string, events int) (*experiments.Result, *scope.Fleet, error) {
	fleet := scope.NewFleet(events)
	res, err := experiments.RunScoped(id, fleetWorkers, fleet.Machine)
	if err != nil {
		return nil, nil, err
	}
	return res, fleet, nil
}

// render produces the three merged artifacts as byte slices.
func render(m *scope.Merged, top int) (traceJSON, collapsed, topTable []byte, err error) {
	var tb, cb, pb bytes.Buffer
	if err := m.WriteChrome(&tb); err != nil {
		return nil, nil, nil, err
	}
	if err := scope.WriteCollapsed(&cb, m.MachineProfiles()); err != nil {
		return nil, nil, nil, err
	}
	if err := scope.WriteTop(&pb, m.MachineProfiles(), top); err != nil {
		return nil, nil, nil, err
	}
	return tb.Bytes(), cb.Bytes(), pb.Bytes(), nil
}

// metricsText renders every machine's metrics snapshot, machines in fleet
// creation order.
func metricsText(machines []scope.MachineTrace) []byte {
	var b bytes.Buffer
	for _, m := range machines {
		fmt.Fprintf(&b, "== %s ==\n", m.Name)
		b.WriteString(m.Rec.Snapshot().Text())
	}
	return b.Bytes()
}

// selfCheck is the scope-check gate: the experiment runs twice on fresh
// fleets, and every artifact must come out byte-identical across the two
// runs, across merge input orders (reversed machine list), and across
// worker counts (1 vs 8).
func selfCheck(id string, events, top int) error {
	_, fleet1, err := runFleet(id, events)
	if err != nil {
		return err
	}
	_, fleet2, err := runFleet(id, events)
	if err != nil {
		return err
	}
	m1 := fleet1.Machines()
	m2 := fleet2.Machines()
	reversed := make([]scope.MachineTrace, len(m1))
	for i, m := range m1 {
		reversed[len(m1)-1-i] = m
	}

	variants := []struct {
		label    string
		machines []scope.MachineTrace
		workers  int
	}{
		{"run 1, workers 1", m1, 1},
		{"run 1, workers 8", m1, 8},
		{"run 1, reversed merge order", reversed, 4},
		{"run 2, workers 4", m2, 4},
	}
	var base [3][]byte
	for i, v := range variants {
		t, c, p, err := render(scope.Merge(v.machines, v.workers), top)
		if err != nil {
			return fmt.Errorf("%s: %w", v.label, err)
		}
		if i == 0 {
			base = [3][]byte{t, c, p}
			continue
		}
		for j, pair := range [][2][]byte{{base[0], t}, {base[1], c}, {base[2], p}} {
			names := [3]string{"merged trace", "collapsed profile", "top table"}
			if !bytes.Equal(pair[0], pair[1]) {
				return fmt.Errorf("%s differs between %q and %q", names[j], variants[0].label, v.label)
			}
		}
	}
	return nil
}
