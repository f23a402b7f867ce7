package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"altoos/internal/scope"
	"altoos/internal/trace"
)

// chrome renders one recorder, as the single machine "m", through the
// repository's one Chrome exporter (scope.Merged.WriteChrome).
func chrome(t *testing.T, fill func(r *trace.Recorder), capacity int) string {
	t.Helper()
	f := scope.NewFleet(capacity)
	fill(f.Machine("m"))
	var buf bytes.Buffer
	if err := scope.Merge(f.Machines(), 1).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestChromeTraceShape(t *testing.T) {
	out := chrome(t, func(r *trace.Recorder) {
		r.EmitSpan(40*time.Millisecond, 5*time.Millisecond, trace.KindDiskOp, "check/read", 123, 0)
		r.Emit(45*time.Millisecond, trace.KindCheckFail, "label", 123, 2)
	}, 16)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, out)
	}
	// Metadata (process and lane names) first, then exactly the two real
	// events in emission order.
	var real []map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "M" {
			real = append(real, ev)
		}
	}
	if len(real) != 2 {
		t.Fatalf("got %d non-metadata trace events, want 2:\n%s", len(real), out)
	}
	span := real[0]
	if span["ph"] != "X" || span["ts"].(float64) != 40000 || span["dur"].(float64) != 5000 {
		t.Errorf("span event wrong: %v", span)
	}
	inst := real[1]
	if inst["ph"] != "i" || inst["cat"] != "disk" {
		t.Errorf("instant event wrong: %v", inst)
	}

	// A machine that recorded nothing still exports a valid document.
	if empty := chrome(t, func(*trace.Recorder) {}, 16); !json.Valid([]byte(empty)) {
		t.Fatalf("empty trace is not valid JSON: %s", empty)
	}
}

// TestChromeTraceSelfDescribesEviction: a ring that wrapped must say so in
// its own export — a metadata instant carrying the dropped count — so a
// truncated timeline is never mistaken for a quiet machine.
func TestChromeTraceSelfDescribesEviction(t *testing.T) {
	wrapped := chrome(t, func(r *trace.Recorder) {
		for i := 0; i < 10; i++ {
			r.Emit(time.Duration(i)*time.Millisecond, trace.KindDiskOp, "op", int64(i), 0)
		}
	}, 4)
	for _, want := range []string{`"name":"ring-evicted"`, `"dropped":6`} {
		if !strings.Contains(wrapped, want) {
			t.Errorf("export of a wrapped ring lacks %s:\n%s", want, wrapped)
		}
	}
	// And a ring that did not wrap stays silent about eviction.
	quiet := chrome(t, func(r *trace.Recorder) {
		r.Emit(0, trace.KindDiskOp, "op", 1, 0)
	}, 4)
	if strings.Contains(quiet, "ring-evicted") {
		t.Error("export of an unwrapped ring claims eviction")
	}
}
