// altofleet runs any experiment as a fleet — one trace recorder per
// simulated machine, the windowed scheduler (internal/fleet) at -workers
// wide — and reports what the run did. The default, E14, boots a hundred
// Altos against one file server; E15 is the sharded, replicated cluster.
//
// Every run is a pure function of the experiment: byte-identical across
// repeated runs and across -workers counts. -check proves it
// (experiments.CheckDeterminism): the experiment runs twice at one worker
// and twice at eight, and every machine's event stream, every machine's
// metrics snapshot and every result metric must come out byte-identical, or
// the process exits nonzero naming the run, the machine and the first
// difference. That is the make determinism-check gate.
//
// Usage:
//
//	altofleet -workers 8
//	altofleet -experiment e15 -json
//	altofleet -check -experiment e13
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"altoos/internal/experiments"
	"altoos/internal/scope"
	"altoos/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		workers    = flag.Int("workers", 8, "worker-pool width for the windowed schedule")
		experiment = flag.String("experiment", "e14", "experiment id to run (see -list)")
		events     = flag.Int("events", trace.DefaultEvents, "per-machine ring capacity in events")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON instead of the table")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		check      = flag.Bool("check", false, "prove determinism: run at 1 and 8 workers, twice each, and fail on any byte difference")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *check {
		if err := experiments.CheckDeterminism(*experiment, *events); err != nil {
			log.Fatalf("altofleet: %s: %v", *experiment, err)
		}
		fmt.Printf("determinism-check ok: %s byte-identical across runs and worker counts\n", *experiment)
		return
	}

	fl := scope.NewFleet(*events)
	res, err := experiments.Run(*experiment, *workers, fl.Machine)
	if err != nil {
		log.Fatalf("altofleet: %v", err)
	}
	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			log.Fatalf("altofleet: %v", err)
		}
		return
	}
	fmt.Println(res.Table())
	ms := fl.Machines()
	fmt.Printf("fleet: %d machines, %d workers\n", len(ms), *workers)
	var total int
	for _, m := range ms {
		total += m.Rec.Len()
	}
	fmt.Printf("traced: %d events across the fleet\n", total)
}
