package altoos

// BenchmarkExperiments measures what every experiment costs the host: one
// sub-benchmark per id, each running the experiment through experiments.Run
// with tracing off. ns/op and allocs/op are the host's simulation speed, not
// a reproduction target. The simulated results are the paper's claims; they
// are checked exactly, every row and metric, by internal/experiments'
// TestAllRunsEveryExperiment against the checked-in record. E14 also runs at
// eight workers (e14-w8), so the two widths' ns/op read side by side.

import (
	"testing"

	"altoos/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) { benchRun(b, id, 1) })
	}
	b.Run("e14-w8", func(b *testing.B) { benchRun(b, "e14", 8) })
}

// benchRun runs experiment id once per iteration at the given worker width.
func benchRun(b *testing.B, id string, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, workers, nil); err != nil {
			b.Fatal(err)
		}
	}
}
