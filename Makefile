# Development targets. `make check` is the pre-merge gate (see ROADMAP.md).

GO ?= go

.PHONY: check lint vet gofmt memlint memlint-per-check lint-fixtures build test race repro perfbench bench benchdiff fuzz prof-smoke serve-smoke loadtest fmt

check: lint build race repro perfbench benchdiff ## pre-merge gate: lint + build + race tests + reproduction + benchmark module (+ advisory benchdiff)

# lint is the static-analysis gate: go vet, gofmt, plus the repo's own memlint
# suite (determinism, maprange, nilhook, durable, errhygiene, and the
# whole-module concurrency checks lockguard/goleak/ctxflow — see
# docs/static-analysis.md). memlint exits 0 on a clean tree, 1 on
# findings, 2 on usage/load errors; `go run` caches the memlint build in
# the standard Go build cache, so repeat runs only pay for analysis.
lint: vet gofmt memlint

vet:
	$(GO) vet ./...

# gofmt fails when gofmt would change a Go file of a package `go list
# ./...` reports. It is handed each package's files, not its directory:
# on a directory gofmt would descend into testdata/, where the suppress*
# analyzer fixtures are unformatted on purpose.
gofmt:
	@out=$$(gofmt -l $$($(GO) list -f '{{.Dir}}/*.go' ./...)); \
	if [ -n "$$out" ]; then echo "gofmt: run make fmt, these files are not formatted:"; echo "$$out"; exit 1; fi

memlint:
	$(GO) run ./cmd/memlint ./...

# MEMLINT_CHECKS drives the per-check CI step: one memlint invocation
# per analyzer, timed, so a slow or noisy check is visible in the log
# instead of hiding inside the aggregate run.
MEMLINT_CHECKS ?= determinism maprange nilhook durable errhygiene lockguard goleak ctxflow
memlint-per-check:
	@for c in $(MEMLINT_CHECKS); do \
		start=$$(date +%s%N); \
		$(GO) run ./cmd/memlint -checks $$c ./... || exit 1; \
		echo "== memlint -checks $$c: $$(( ($$(date +%s%N) - start) / 1000000 )) ms"; \
	done

# lint-fixtures runs only the analyzer fixture harness (want comments +
# goldens) — the fast inner loop for analyzer development; regenerate
# goldens with `go test ./internal/analysis -run Fixture -update`.
lint-fixtures:
	$(GO) test -run 'Fixture' -count=1 ./internal/analysis/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

repro:
	$(GO) test -run TestReproduction ./...

# perfbench vets and tests the benchmark module, _perfbench, which is a
# separate module built against this one: a change to an API it calls, or
# to a byte of the paperfigs artifacts it pins, fails here and not only
# in the benchmark run.
perfbench:
	cd _perfbench && $(GO) vet . && $(GO) test .

# fuzz gives every fuzz target a short smoke run (the regression corpora
# under testdata/fuzz run on every plain `go test` regardless).
FUZZTIME ?= 5s
fuzz:
	$(GO) test -fuzz '^FuzzParseByteSize$$' -fuzztime $(FUZZTIME) ./internal/units/
	$(GO) test -fuzz '^FuzzParseBandwidth$$' -fuzztime $(FUZZTIME) ./internal/units/
	$(GO) test -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -fuzz '^FuzzLoadPlatformFile$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzLoadProfileFile$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzClusterProgram$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -fuzz '^FuzzReadJSONL$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz '^FuzzSolve$$' -fuzztime $(FUZZTIME) ./internal/memsys/
	$(GO) test -fuzz '^FuzzIndentJSON$$' -fuzztime $(FUZZTIME) ./internal/export/
	$(GO) test -fuzz '^FuzzAppendJSON$$' -fuzztime $(FUZZTIME) ./internal/eval/

# prof-smoke runs memprof on the seeded overlap scenario and validates
# the Perfetto export byte-for-byte against the golden file (regenerate
# after intended changes with `go test ./cmd/memprof -run Golden -update`),
# and checks that `memprof -load` of a trace recorded through a plain
# trace.Recorder (memmodel's -trace path) reproduces the live critical
# path (TestMemprofLoadsRecorderTrace).
prof-smoke:
	$(GO) test -run 'TestMemprof' -count=1 ./cmd/memprof/

# bench refreshes the benchmark log used to track instrumentation
# overhead (compare against BENCH_baseline.json).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./... | $(GO) run ./scripts/benchjson

# benchdiff compares the working tree with BENCHDIFF_BASE (default
# HEAD~1), checked out into a temporary git worktree: the
# BENCHDIFF_PATTERN benchmarks run 3 alternating rounds per side, and
# scripts/benchdiff compares each benchmark's median ns/op and allocs/op,
# failing beyond 15% growth. BENCH_baseline.json (`make bench`) stays the
# committed record. Advisory in `make check` (leading `-`): shared runners
# are noisy, so a flagged regression means "measure properly before
# merging", not "blocked" (see docs/observability.md).
BENCHDIFF_BASE ?= HEAD~1
BENCHDIFF_PATTERN ?= BenchmarkClusterHaloExchange$$|BenchmarkTable1Platforms$$|BenchmarkTable2Errors$$|BenchmarkPredict$$|BenchmarkSolver$$|BenchmarkSolve$$|BenchmarkMeasurePoint$$|BenchmarkFlowsChurn$$|BenchmarkSimEvents$$|BenchmarkRenderArtifacts$$|BenchmarkWrite$$|BenchmarkCalibrateRunner$$|BenchmarkEvaluatePlatform$$|BenchmarkDeliver$$|BenchmarkSendRecv$$|BenchmarkAllreduce$$|BenchmarkComputePhase$$
benchdiff:
	-GO=$(GO) bash scripts/benchdiff/run.sh '$(BENCHDIFF_PATTERN)' '$(BENCHDIFF_BASE)'

# serve-smoke boots the real memserve binary path (warm-up, listener,
# live plane) and walks /healthz, /readyz, a prediction and a /metrics
# scrape end to end.
serve-smoke:
	$(GO) test -run 'TestMemserve' -count=1 ./cmd/memserve/

# loadtest proves the serving budgets on cached predictions: achieved
# QPS >= 5000 and server-reported p99 <= 5ms, both read back from the
# live /metrics scrape (see docs/memserve.md).
LOAD_DURATION ?= 3s
loadtest:
	$(GO) run ./scripts/loadgen -duration $(LOAD_DURATION) -workers 16 -qps-budget 5000 -p99-budget 5ms

fmt:
	gofmt -l -w $$($(GO) list -f '{{.Dir}}/*.go' ./...)
