// Package experiments regenerates every quantitative claim in the paper's
// text — its "tables and figures". The paper is a design paper with no
// numbered exhibits, so each embedded claim is promoted to an experiment
// E1..E15 (see DESIGN.md §3 and EXPERIMENTS.md for the index). Each
// experiment builds the workload it needs from scratch, runs it on the
// simulated machine, and reports the measured shape next to the paper's
// sentence.
//
// All times are simulated (the virtual clock the disk, CPU and network
// models advance); wall-clock time on the host is irrelevant to the claims.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/scope"
	"altoos/internal/trace"
)

// Row is one line of an experiment's table.
type Row struct {
	Label string
	Value string
}

// Result is a completed experiment.
type Result struct {
	ID    string
	Title string
	Claim string // the paper's sentence, abridged
	Rows  []Row
	// Metrics carries machine-readable values for benchmarks.
	Metrics map[string]float64
}

// Table renders the result for a terminal.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "  paper: %s\n", r.Claim)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-44s %s\n", row.Label, row.Value)
	}
	return b.String()
}

// WriteJSON emits the result as one stable JSON document: identification,
// the human-readable rows, and the numeric metrics (keys sorted by
// encoding/json). It is the format of altofleet -json and of the checked-in
// record under testdata/results.
func (r *Result) WriteJSON(w io.Writer) error {
	type row struct {
		Name  string `json:"name"`
		Value string `json:"value"`
	}
	doc := struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Claim   string             `json:"claim"`
		Rows    []row              `json:"rows"`
		Metrics map[string]float64 `json:"metrics"`
	}{ID: r.ID, Title: r.Title, Claim: r.Claim, Metrics: r.Metrics}
	for _, rw := range r.Rows {
		doc.Rows = append(doc.Rows, row{Name: rw.Label, Value: rw.Value})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func (r *Result) add(label, format string, args ...any) {
	r.Rows = append(r.Rows, Row{Label: label, Value: fmt.Sprintf(format, args...)})
}

func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// rig builds a formatted drive + fs + root for experiments.
type rig struct {
	drive *disk.Drive
	fs    *file.FS
	root  *dir.Directory
}

func newRig(g disk.Geometry, rec *trace.Recorder) (*rig, error) {
	d, err := disk.NewDrive(g, 1, nil)
	if err != nil {
		return nil, err
	}
	d.SetRecorder(rec)
	fs, err := file.Format(d)
	if err != nil {
		return nil, err
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		return nil, err
	}
	return &rig{drive: d, fs: fs, root: root}, nil
}

// addFile creates a named file with n full data pages of deterministic
// content plus the trailing partial page.
func (r *rig) addFile(name string, pages int) (*file.File, error) {
	f, err := r.fs.Create(name)
	if err != nil {
		return nil, err
	}
	var page [disk.PageWords]disk.Word
	for pn := 1; pn <= pages; pn++ {
		for i := range page {
			page[i] = disk.Word((pn*31 + i) & 0xFFFF) // test-pattern fill: truncation is the point
		}
		if err := f.WritePage(disk.Word(pn), &page, disk.PageBytes); err != nil {
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := r.root.Insert(name, f.FN()); err != nil {
		return nil, err
	}
	return f, nil
}

// readSequential reads pages 1..last of f, returning simulated time per page.
func (r *rig) readSequential(f *file.File) (time.Duration, int, error) {
	lastPN := f.LastPN()
	start := r.drive.Clock().Now()
	var buf [disk.PageWords]disk.Word
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		if _, err := f.ReadPage(pn, &buf); err != nil {
			return 0, 0, err
		}
	}
	return r.drive.Clock().Now() - start, int(lastPN), nil
}

// ms formats a duration as milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// secs formats a duration as seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// run is one experiment's entry point: the pool width the fleet engine and
// crash explorer run at, and the recorder assignment (nil: tracing off).
type run func(workers int, machine func(string) *trace.Recorder) (*Result, error)

// registry lists every experiment in order, one entry point each.
var registry = []struct {
	id  string
	run run
}{
	{"e1", single(e1RawTransfer)},
	{"e2", single(e2AllocFreeCost)},
	{"e3", single(e3Scavenge)},
	{"e4", single(e4Compaction)},
	{"e5", single(e5HintLadder)},
	{"e6", single(e6WorldSwap)},
	{"e7", single(e7Junta)},
	{"e8", single(e8Robustness)},
	{"e9", single(e9InstalledHints)},
	{"e10", e10LoadedServer},
	{"e11", e11LossSweep},
	{"e12", e12CrashSweep},
	{"e13", e13Saturation},
	{"e14", e14FleetFanIn},
	{"e15", e15ClusterAudit},
}

// IDs lists the experiment ids Run accepts, in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	return out
}

// Run executes the experiment with the given id (case-insensitive). workers
// is the pool width of the fleet engine and the crash explorer; results are
// identical at every width. machine hands each named simulated machine its
// own recorder (scope.Fleet.Machine is the canonical source); nil turns
// tracing off. An experiment on one machine runs as one machine named
// "machine".
func Run(id string, workers int, machine func(string) *trace.Recorder) (*Result, error) {
	for _, r := range registry {
		if strings.EqualFold(r.id, id) {
			return r.run(workers, machine)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// singleMachine names the one machine of a single-machine experiment.
const singleMachine = "machine"

// single adapts a single-machine experiment that reads no counters: it
// traces into the one machine's recorder, or into nil when tracing is off.
func single(f func(rec *trace.Recorder) (*Result, error)) run {
	return func(_ int, machine func(string) *trace.Recorder) (*Result, error) {
		return f(newRecorders(machine).traced(singleMachine))
	}
}

// privateEvents is the ring capacity of a recorder handed out with tracing
// off. Only its counters are read, so the ring need hold nothing.
const privateEvents = 1

// recorders hands each named machine of one run its recorder and sums
// counters over them. With tracing on the recorders are the caller's; with
// it off they come from a private fleet, so the run simulates exactly what
// a traced run does (flow domains included) and its counters still count.
type recorders struct {
	assign  func(string) *trace.Recorder
	tracing bool
	recs    []*trace.Recorder // every distinct recorder handed out, creation order
}

func newRecorders(machine func(string) *trace.Recorder) *recorders {
	return &recorders{assign: machine, tracing: machine != nil}
}

// machine returns the named machine's recorder.
func (r *recorders) machine(name string) *trace.Recorder {
	if r.assign == nil {
		r.assign = scope.NewFleet(privateEvents).Machine
	}
	rec := r.assign(name)
	if rec != nil && !slices.Contains(r.recs, rec) {
		r.recs = append(r.recs, rec)
	}
	return rec
}

// traced returns the named machine's recorder with tracing on and nil with
// it off, for a run that reads no counters and so need record nothing.
func (r *recorders) traced(name string) *trace.Recorder {
	if !r.tracing {
		return nil
	}
	return r.machine(name)
}

// counter sums a counter over every machine of the run.
func (r *recorders) counter(name string) int64 {
	var total int64
	for _, rec := range r.recs {
		total += rec.Counter(name)
	}
	return total
}
