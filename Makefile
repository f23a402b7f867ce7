# The pre-PR gate. `make check` is what CI (and a careful human) runs:
# build everything, check formatting, run the stock vet, run the
# domain-aware vet, the replay and crash gates, the host-cost benchmark's
# tests, then the tests under the race detector.

GO ?= go

.PHONY: check build fmt-check vet altovet vet-stats vet-baseline test race bench results determinism-check crash-check hostbench-test fmt

check: build fmt-check vet altovet vet-stats determinism-check crash-check hostbench-test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# altovet compares against the checked-in baseline, so the gate fails only on
# findings *new* since the baseline. The tree is clean today
# — the baseline is empty — but the mechanism lets a future large-scale
# finding haul land incrementally without turning the gate off.
altovet:
	$(GO) run ./cmd/altovet -baseline vet_baseline.json ./...

# vet-stats prints the per-analyzer finding/allow counts against the baseline;
# informational, part of check so drift is visible in every run's log.
vet-stats:
	$(GO) run ./cmd/altovet -baseline vet_baseline.json -stats ./... || true

# vet-baseline refreshes the checked-in baseline to the current findings; run
# it (and commit the result) only when deliberately accepting a legacy haul.
vet-baseline:
	$(GO) run ./cmd/altovet -baseline vet_baseline.json -write-baseline ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# determinism-check is the one replay gate (experiments.CheckDeterminism,
# driven by altofleet -check): each experiment runs twice at one worker and
# twice at eight, and every machine's event stream, every machine's metrics
# snapshot (counters, histograms, dropped events) and every result metric
# must come out byte-identical, or the run, the machine and the first
# difference are named. The merged trace, profile and metrics text altoscope
# writes are pure functions of what it compares. It covers every experiment
# that records events; e7 (Junta) never touches a disk, records nothing, and
# the gate rejects a run with nothing recorded.
DETERMINISM_IDS = e1 e2 e3 e4 e5 e6 e8 e9 e10 e11 e12 e13 e14 e15

determinism-check:
	$(GO) build -o /dev/null ./cmd/altofleet
	for id in $(DETERMINISM_IDS); do \
		$(GO) run ./cmd/altofleet -check -experiment $$id -events 16384 || exit 1; \
	done

# crash-check is the §3.5 gate: a sampled sweep of crash points (clean and
# torn) over the journaled directory workload; altocrash exits non-zero if
# any crash point fails to recover to a pack fsck certifies violation-free.
crash-check:
	$(GO) run ./cmd/altocrash -workload journaled-insert -points 64 -workers 8 -torn

# hostbench-test runs the host-cost benchmark's own tests. hostbench/ is a
# separate module that drives internal packages directly, so a change to an
# internal API, or to the audit schedule its copy of the audit loop must
# match, shows up here and nowhere else.
hostbench-test:
	cd hostbench && $(GO) test ./...

# results rewrites the checked-in record of every experiment,
# internal/experiments/testdata/results/<id>.json, from a traced one-worker
# altofleet run. TestAllRunsEveryExperiment compares each untraced run with
# its file byte for byte, so run this only for a change that moves a result
# on purpose, and say why in the change.
RESULTS_DIR = internal/experiments/testdata/results

results:
	$(GO) build -o /dev/null ./cmd/altofleet
	mkdir -p $(RESULTS_DIR)
	for id in $$($(GO) run ./cmd/altofleet -list); do \
		$(GO) run ./cmd/altofleet -json -workers 1 -experiment $$id > $(RESULTS_DIR)/$$id.json || exit 1; \
	done

# bench measures host cost: ns/op and allocs/op of one run of every
# experiment (E14 at one worker and at eight), then of one iteration of each
# per-layer rung (a disk op, chain and format; a memory load and store; a
# directory lookup; a wire delivery; a pup exchange; a fleet window). One
# iteration makes a rung's ns/op rough, but its allocs/op exact. It prints and writes no file; the
# simulated results are checked exactly by go test instead.
BENCH_LAYERS = ./internal/disk ./internal/mem ./internal/dir ./internal/ether ./internal/pup ./internal/fleet

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . $(BENCH_LAYERS)

# fmt rewrites every unformatted file in place; fmt-check is its gate form,
# part of check: it lists the unformatted files and fails if there are any.
fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed (run make fmt):"; echo "$$out"; exit 1; fi
