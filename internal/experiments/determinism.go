package experiments

import (
	"fmt"
	"sort"
	"strings"

	"altoos/internal/scope"
	"altoos/internal/trace"
)

// checkWidths are the worker-pool widths a determinism check runs at: twice
// serially, twice across a pool, so both repeat-run and cross-width
// divergence show.
var checkWidths = []int{1, 1, 8, 8}

// stream is one machine's recording: its events and the lines of its
// metrics snapshot (counters, histograms and the dropped count).
type stream struct {
	name    string
	events  []trace.Event
	metrics []string
}

// snapshot is one run flattened for comparison: every machine's stream, in
// name order, and every Result metric as a "name value" line, in key order.
type snapshot struct {
	streams []stream
	metrics []string
}

// CheckDeterminism is the replay gate: it runs experiment id at worker
// widths 1, 1, 8 and 8, each on fresh per-machine recorders holding up to
// events events, and fails unless every machine's event stream, every
// machine's metrics snapshot and every Result metric come out byte-identical
// across all four runs. The error names the run, the machine and the first
// differing event or snapshot line. Every rendering of a run (the merged
// trace, the profile, the metrics text) is a pure function of what is
// compared here.
func CheckDeterminism(id string, events int) error {
	_, err := checkDeterminism(func(workers int, machine func(string) *trace.Recorder) (*Result, error) {
		return Run(id, workers, machine)
	}, events)
	return err
}

// checkDeterminism is CheckDeterminism over any run. It returns the first
// run's snapshot so callers can check what was recorded.
func checkDeterminism(exp run, events int) (*snapshot, error) {
	var base *snapshot
	for i, workers := range checkWidths {
		label := fmt.Sprintf("run %d (workers=%d)", i+1, workers)
		got, err := record(exp, workers, events)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		if base == nil {
			if !got.recorded() {
				return nil, fmt.Errorf("%s: no machine recorded an event — tracing is not wired in", label)
			}
			base = got
			continue
		}
		if d := base.diff(got); d != "" {
			return nil, fmt.Errorf("%s diverged from run 1 (workers=%d): %s", label, checkWidths[0], d)
		}
	}
	return base, nil
}

// record executes one run and flattens it.
func record(exp run, workers, events int) (*snapshot, error) {
	fl := scope.NewFleet(events)
	res, err := exp(workers, fl.Machine)
	if err != nil {
		return nil, err
	}
	s := &snapshot{}
	for _, m := range fl.Machines() {
		s.streams = append(s.streams, stream{
			name:    m.Name,
			events:  m.Rec.Events(),
			metrics: strings.Split(m.Rec.Snapshot().Text(), "\n"),
		})
	}
	sort.Slice(s.streams, func(i, j int) bool { return s.streams[i].name < s.streams[j].name })
	for k, v := range res.Metrics {
		s.metrics = append(s.metrics, fmt.Sprintf("%s %v", k, v))
	}
	sort.Strings(s.metrics)
	return s, nil
}

// recorded reports whether any machine recorded an event.
func (s *snapshot) recorded() bool {
	for _, st := range s.streams {
		if len(st.events) > 0 {
			return true
		}
	}
	return false
}

// diff describes where got first departs from s, or returns "" when the two
// runs match.
func (s *snapshot) diff(got *snapshot) string {
	for i := 0; i < max(len(s.streams), len(got.streams)); i++ {
		b, g := streamAt(s.streams, i), streamAt(got.streams, i)
		if b.name != g.name {
			return fmt.Sprintf("machine %s recorded where %s was expected", g.name, b.name)
		}
		for j := 0; j < max(len(b.events), len(g.events)); j++ {
			if j >= len(b.events) || j >= len(g.events) || b.events[j] != g.events[j] {
				return fmt.Sprintf("machine %s, event %d: got %s, want %s", b.name, j, eventAt(g.events, j), eventAt(b.events, j))
			}
		}
		if d := diffLines(b.metrics, g.metrics); d != "" {
			return fmt.Sprintf("machine %s, metrics %s", b.name, d)
		}
	}
	if d := diffLines(s.metrics, got.metrics); d != "" {
		return "result metric " + d
	}
	return ""
}

// diffLines describes the first line (numbered from 1) where got departs
// from want, or returns "" when they match.
func diffLines(want, got []string) string {
	for j := 0; j < max(len(want), len(got)); j++ {
		if w, g := lineAt(want, j), lineAt(got, j); w != g {
			return fmt.Sprintf("line %d: got %s, want %s", j+1, g, w)
		}
	}
	return ""
}

func streamAt(s []stream, i int) stream {
	if i < len(s) {
		return s[i]
	}
	return stream{name: "(none)"}
}

func eventAt(evs []trace.Event, j int) string {
	if j >= len(evs) {
		return "end of stream"
	}
	return fmt.Sprintf("%+v", evs[j])
}

func lineAt(lines []string, j int) string {
	if j < len(lines) {
		return fmt.Sprintf("%q", lines[j])
	}
	return "end of list"
}
