package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"altoos/internal/vet"
)

// sharedModule is the module every test in this binary loads through, once:
// type-checking the standard library from source is what a load costs.
// TestParallelRunDeterministic alone loads afresh, because the fresh load
// at each width is what it tests.
var sharedModule = sync.OnceValues(func() (*vet.Module, error) { return vet.LoadModule(".") })

func testModule(t *testing.T) *vet.Module {
	t.Helper()
	mod, err := sharedModule()
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// loadFixture type-checks a fixture package under a virtual import path, so
// the analyzers' scope rules treat it as living wherever the test says. The
// fixture is isolated from the shared module's other packages, as if it were
// loaded into a fresh module.
func loadFixture(t *testing.T, dir, virtualPath string) *vet.Package {
	t.Helper()
	pkg, err := testModule(t).LoadIsolated(filepath.Join("testdata", "src", dir), virtualPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// analyzersByName fails the test rather than returning nil.
func analyzersByName(t *testing.T, names ...string) []*vet.Analyzer {
	t.Helper()
	byName := map[string]*vet.Analyzer{}
	for _, a := range vet.Analyzers() {
		byName[a.Name] = a
	}
	var out []*vet.Analyzer
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			t.Fatalf("no analyzer named %q", name)
		}
		out = append(out, a)
	}
	return out
}

// TestFixtures runs analyzers over their fixture packages and checks every
// finding against the fixture's // want comments — at least one positive
// and one negative case per analyzer live in the fixtures. The determinism
// fixtures run determinism and simtaint together: the wall-clock call-site
// bans moved from the former to the latter, and the fixtures cover the
// seam.
func TestFixtures(t *testing.T) {
	cases := []struct {
		name      string
		analyzers []string
		dir       string
		virtual   string
	}{
		{"determinism", []string{"determinism", "simtaint"}, "determfix", "altoos/internal/determfix"},
		{"sched-disk", []string{"determinism", "simtaint"}, "schedfix", "altoos/internal/disk"},
		{"sched-pup", []string{"determinism", "simtaint"}, "schedfix", "altoos/internal/pup"},
		{"sched-fileserver", []string{"determinism", "simtaint"}, "schedfix", "altoos/internal/fileserver"},
		{"sched-crashpoint", []string{"determinism", "simtaint"}, "schedfix", "altoos/internal/crashpoint"},
		{"sched-fsck", []string{"determinism", "simtaint"}, "schedfix", "altoos/internal/fsck"},
		{"sched-scope", []string{"determinism", "simtaint"}, "schedfix", "altoos/internal/scope"},
		{"sched-fleet", []string{"determinism", "simtaint"}, "schedfix", "altoos/internal/fleet"},
		{"sched-cluster", []string{"determinism", "simtaint"}, "schedfix", "altoos/internal/cluster"},
		{"wordwidth", []string{"wordwidth"}, "widthfix", "altoos/internal/widthfix"},
		{"labelcheck", []string{"labelcheck"}, "labelfix", "altoos/internal/labelfix"},
		{"errdiscard", []string{"errdiscard"}, "errfix", "altoos/internal/errfix"},
		{"mutexorder", []string{"mutexorder"}, "lockfix", "altoos/internal/lockfix"},
		{"gospawn", []string{"gospawn"}, "spawnfix", "altoos/internal/spawnfix"},
		{"gospawn-fleet", []string{"gospawn"}, "spawnfix", "altoos/internal/fleet"},
		{"gospawn-cluster", []string{"gospawn"}, "spawnfix", "altoos/internal/cluster"},
		{"chanorder", []string{"chanorder"}, "chanfix", "altoos/internal/disk"},
		{"globalstate", []string{"globalstate"}, "globalfix", "altoos/internal/fsck"},
		{"simtaint-flow", []string{"simtaint"}, "taintfix", "altoos/cmd/taintfix"},
		{"tracecover", []string{"tracecover"}, "tracefix", "altoos/internal/disk"},
		{"tracecover-scope", []string{"tracecover"}, "tracefix", "altoos/internal/scope"},
		// The transport-v2 rewrite made pup and fileserver the heaviest
		// emitters; the gate must keep firing under their virtual paths.
		{"tracecover-pup", []string{"tracecover"}, "tracefix", "altoos/internal/pup"},
		{"tracecover-fileserver", []string{"tracecover"}, "tracefix", "altoos/internal/fileserver"},
		// The cluster's audit daemon joined the replay and observability
		// contracts in the same PR; the gate must fire under its path too.
		{"tracecover-cluster", []string{"tracecover"}, "tracefix", "altoos/internal/cluster"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir, tc.virtual)
			diags := vet.Run(pkg, analyzersByName(t, tc.analyzers...))
			if len(diags) == 0 {
				t.Fatalf("fixture %s produced no findings at all", tc.dir)
			}
			for _, problem := range vet.CheckWant(pkg, diags) {
				t.Error(problem)
			}
		})
	}
}

// dropStaleAllows filters out the stale-allow findings the exempt-layout
// scope tests expect: a fixture's allow directive legitimately suppresses
// nothing when the fixture is loaded where its analyzer does not fire.
func dropStaleAllows(diags []vet.Diagnostic) (kept []vet.Diagnostic, stale int) {
	for _, d := range diags {
		if d.Analyzer == "allow" && strings.Contains(d.Message, "stale") {
			stale++
			continue
		}
		kept = append(kept, d)
	}
	return kept, stale
}

// TestDeterminismScope loads the determinism fixture under a cmd/ virtual
// path: entry points are exempt from both the rand-import ban and the
// wall-clock call-site bans, and the fixture's flows are domain-clean, so
// the same code must produce no findings.
func TestDeterminismScope(t *testing.T) {
	pkg := loadFixture(t, "determfix", "altoos/cmd/determfix")
	diags := vet.Run(pkg, analyzersByName(t, "determinism", "simtaint"))
	for _, d := range diags {
		t.Errorf("determinism/simtaint fired in exempt cmd/ scope: %s", d)
	}
}

// TestMapRangeScope loads the scheduler fixture outside the replay-critical
// packages: the map-iteration rule is scoped to those, so only the
// wall-clock finding (now simtaint's) survives the move.
func TestMapRangeScope(t *testing.T) {
	pkg := loadFixture(t, "schedfix", "altoos/internal/file")
	diags := vet.Run(pkg, analyzersByName(t, "determinism", "simtaint"))
	for _, d := range diags {
		if strings.Contains(d.Message, "map iteration") {
			t.Errorf("map-range rule fired outside the replay-critical packages: %s", d)
		}
	}
	if len(diags) != 1 || diags[0].Analyzer != "simtaint" {
		t.Errorf("got %d findings outside the scoped packages, want only simtaint's time.Now one: %v", len(diags), diags)
	}
}

// TestLabelCheckScope loads the labelcheck fixture as if it were the disk
// package itself, which is entitled to raw sector access.
func TestLabelCheckScope(t *testing.T) {
	pkg := loadFixture(t, "labelfix", "altoos/internal/disk2")
	// Under a non-exempt path it fires (see TestFixtures); under the real
	// disk path it must not. Same directory, different virtual location.
	exempt := loadFixture(t, "labelfix", "altoos/internal/scavenge")
	if diags := vet.Run(exempt, analyzersByName(t, "labelcheck")); len(diags) != 0 {
		t.Errorf("labelcheck fired in exempt scavenge scope: %v", diags)
	}
	if diags := vet.Run(pkg, analyzersByName(t, "labelcheck")); len(diags) == 0 {
		t.Error("labelcheck silent outside the exempt packages")
	}
}

// TestGoSpawnScope loads the spawn fixture under cmd/: entry points may run
// daemons, so the only finding is the fixture's own allow directive,
// reported stale because it suppresses nothing there.
func TestGoSpawnScope(t *testing.T) {
	pkg := loadFixture(t, "spawnfix", "altoos/cmd/spawnfix")
	diags, stale := dropStaleAllows(vet.Run(pkg, analyzersByName(t, "gospawn")))
	for _, d := range diags {
		t.Errorf("gospawn fired in exempt cmd/ scope: %s", d)
	}
	if stale != 1 {
		t.Errorf("got %d stale-allow findings in exempt scope, want 1 (the fixture's own directive)", stale)
	}
}

// TestChanOrderScope: the channel-order rules bind only the
// determinism-gated packages.
func TestChanOrderScope(t *testing.T) {
	pkg := loadFixture(t, "chanfix", "altoos/internal/chanfix")
	diags, stale := dropStaleAllows(vet.Run(pkg, analyzersByName(t, "chanorder")))
	for _, d := range diags {
		t.Errorf("chanorder fired outside the gated packages: %s", d)
	}
	if stale != 1 {
		t.Errorf("got %d stale-allow findings in exempt scope, want 1", stale)
	}
}

// TestGlobalStateScope: the frozen-globals rule binds only the
// determinism-gated packages.
func TestGlobalStateScope(t *testing.T) {
	pkg := loadFixture(t, "globalfix", "altoos/internal/globalfix")
	diags, stale := dropStaleAllows(vet.Run(pkg, analyzersByName(t, "globalstate")))
	for _, d := range diags {
		t.Errorf("globalstate fired outside the gated packages: %s", d)
	}
	if stale != 1 {
		t.Errorf("got %d stale-allow findings in exempt scope, want 1", stale)
	}
}

// TestTraceCoverScope: the observability lint binds only the traced
// packages.
func TestTraceCoverScope(t *testing.T) {
	pkg := loadFixture(t, "tracefix", "altoos/internal/tracefix")
	diags, stale := dropStaleAllows(vet.Run(pkg, analyzersByName(t, "tracecover")))
	for _, d := range diags {
		t.Errorf("tracecover fired outside the traced packages: %s", d)
	}
	if stale != 1 {
		t.Errorf("got %d stale-allow findings in exempt scope, want 1", stale)
	}
}

// TestSimTaintLayouts: the flow fixture under an internal/ path gains the
// call-site bans on top of its flow findings — the internal layout is
// strictly stricter than the cmd one TestFixtures checks.
func TestSimTaintLayouts(t *testing.T) {
	pkg := loadFixture(t, "taintfix", "altoos/internal/taintfix")
	diags := vet.Run(pkg, analyzersByName(t, "simtaint"))
	bans, flows := 0, 0
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "reads the host wall clock"):
			bans++
		case strings.Contains(d.Message, "flows into"):
			flows++
		}
	}
	if bans == 0 {
		t.Error("internal layout produced no call-site bans")
	}
	// The cmd layout has 5 flow findings (4 wants + 1 allowed); internal
	// keeps the same flows and suppresses the allowed one identically.
	if flows != 4 {
		t.Errorf("internal layout produced %d flow findings, want the same 4 as the cmd layout", flows)
	}
}

// TestProductionTreeClean is the gate the Makefile check target automates:
// the whole module, every analyzer, zero findings.
func TestProductionTreeClean(t *testing.T) {
	pkgs, err := testModule(t).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	diags, _ := vet.RunAll(pkgs, vet.Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestParallelRunDeterministic: the same tree analyzed with one worker and
// with many must produce byte-identical output — the parallel merge may not
// leak scheduling into the findings order.
func TestParallelRunDeterministic(t *testing.T) {
	render := func(workers int) string {
		mod, err := vet.LoadModule(".")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := mod.LoadParallel(workers, "./...")
		if err != nil {
			t.Fatal(err)
		}
		diags, _ := vet.RunAll(pkgs, vet.Analyzers())
		var b strings.Builder
		for _, d := range mod.JSONDiagnostics(diags) {
			b.WriteString(d.File)
			b.WriteByte(':')
			b.WriteString(d.Message)
			b.WriteByte('\n')
		}
		return b.String()
	}
	if one, eight := render(1), render(8); one != eight {
		t.Errorf("worker count changed the output:\n-- 1 worker --\n%s\n-- 8 workers --\n%s", one, eight)
	}
}

// TestRunExitCodes drives the CLI entry point the way the shell does.
func TestRunExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d, stderr %q", code, errOut.String())
	}
	for _, name := range []string{"labelcheck", "gospawn", "chanorder", "globalstate", "simtaint", "tracecover"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s", name)
		}
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-run", "nosuch"}, &out, &errOut); code != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", code)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Errorf("production tree not clean: exit %d\n%s", code, out.String())
	}
}

// TestJSONAndBaselineFlow drives the satellite machinery end to end on the
// production tree: -json emits a well-formed array, -write-baseline records
// it, and -baseline accepts the tree it just recorded.
func TestJSONAndBaselineFlow(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-json exited %d: %s", code, errOut.String())
	}
	var diags []vet.JSONDiagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Errorf("internal/sim not clean: %v", diags)
	}

	base := filepath.Join(t.TempDir(), "baseline.json")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", base, "-write-baseline", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-write-baseline exited %d: %s", code, errOut.String())
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("baseline file not written: %v", err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", base, "-stats", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-baseline gate exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "analyzer") || !strings.Contains(out.String(), "total") {
		t.Errorf("-stats printed no table:\n%s", out.String())
	}
}

// TestBaselineMasksLegacyFindings: a finding recorded in the baseline passes
// the gate; a tree with findings and no baseline fails it.
func TestBaselineMasksLegacyFindings(t *testing.T) {
	// The taint fixture under its shipped (cmd) layout has known findings;
	// drive the CLI against a temp module holding just that fixture.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixmod\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("testdata", "src", "globalfix", "globalfix.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "internal", "fsck")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "fix.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	var out, errOut bytes.Buffer
	if code := run([]string{"./..."}, &out, &errOut); code != 1 {
		t.Fatalf("dirty tree without baseline exited %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	base := filepath.Join(dir, "baseline.json")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", base, "-write-baseline", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("-write-baseline exited %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", base, "./..."}, &out, &errOut); code != 0 {
		t.Errorf("baselined tree exited %d, want 0\n%s%s", code, out.String(), errOut.String())
	}
}
