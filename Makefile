# Build / verify targets. tier1 is the full gate: compile, vet, and
# the complete test suite under the race detector (the harness runs
# technique evaluators concurrently, so race-cleanliness is part of
# correctness). Expect several minutes: the litho/OPC experiment
# tests are heavy under -race. Use `make check` for the quick
# pre-commit loop and `make race-fast` for a race pass that skips
# the slow full-scorecard experiments.

GO ?= go
# Benchmark record for the current PR; override to compare against an
# older record, e.g. `make bench BENCH_OUT=BENCH_PR2.json`.
BENCH_OUT ?= BENCH_PR4.json
# Baseline record benchcmp diffs BENCH_OUT against.
BENCH_BASE ?= BENCH_PR3.json
# Serving benchmark (PR5's record): where dfmd listens and where the
# record lands. The micro set above is unchanged since PR4, so the
# serving run gets its own file rather than clobbering that trend;
# compare serving records across PRs with e.g.
# `make benchcmp BENCH_BASE=BENCH_PR5.json BENCH_OUT=BENCH_PR6.json`.
DFMD_ADDR ?= 127.0.0.1:9517
SERVEBENCH_OUT ?= BENCH_PR5.json
# Load shape for servebench; see cmd/dfmload -h.
SERVEBENCH_FLAGS ?= -rate 150 -duration 8s -dup 0.5 -unique 24 -techniques sraf,redundant-via -seed 1
# Cluster chaos benchmark (PR6's record): 3 in-process dfmd backends
# behind dfmrouter, backend n0 hard-killed mid-run and restarted, run
# once under affinity routing and once under round-robin. The two
# headline numbers are BenchmarkCluster*FailedReqs (must stay 0 —
# every request survives the kill via failover) and
# BenchmarkCluster*CacheHitPermil (affinity should beat round-robin
# at 50% duplicate traffic, because duplicates land on the replica
# whose cache already holds them).
CLUSTERBENCH_OUT ?= BENCH_PR6.json
CLUSTERBENCH_FLAGS ?= -cluster 3 -rate 150 -duration 8s -dup 0.5 -unique 24 -techniques sraf,redundant-via -seed 1 -kill 2s -restart 4s -retries 3
# Full-chip streaming benchmark (PR7's record): the halo-tiled engine
# vs the flatten-everything baseline on the same floorplan, plus the
# warm-cache replay path. Every recording target ends with
# `benchjson -check` so an empty or mangled record fails the run.
CHIPBENCH_OUT ?= BENCH_PR7.json
# Distributed full-chip chaos benchmark (PR8's record): two chips whose
# floorplans share macro content, each evaluated single-process and
# then fanned tile-by-tile across 3 dfmd backends through dfmrouter,
# with backend n0 hard-killed during the first distributed run and
# restarted mid-flight. The headline numbers are
# BenchmarkFleetChip*Mismatches (must stay 0 — both distributed chips
# bit-identical to their single-process twins despite the kill) and
# BenchmarkFleetChip*DupPermil (fleet-wide duplicate-tile hit rate:
# tiles shared across the two chips served from node caches instead of
# recomputed).
FLEETBENCH_OUT ?= BENCH_PR8.json
FLEETBENCH_FLAGS ?= -cluster 3 -chip -chiprects 150000 -seed 11 -kill 1s -restart 3s -retries 3
# Surrogate fast-path benchmark (PR9's record): the uncertainty-gated
# ML pre-filter on the full-chip hotspot scan vs the exact-only scan
# of the same ~1M-rect chip, plus the training microbenchmark. The
# headline numbers are BenchmarkSurrogateSpeedupCenti (>= 500 — the
# gated scan must be at least 5x faster), the calibration gauges
# (SkipRatePermil, MAPEMilli, PearsonMilli, Precision/RecallPermil on
# the holdout), and BenchmarkSurrogateDefectRecallPermil (must be
# 1000: the benchmark b.Fatals if any injected defect is lost).
SURROGATEBENCH_OUT ?= BENCH_PR9.json

# In-design score-and-repair loop benches (PR10): the repair loop on a
# ~1M-rect chip plus the incremental-vs-full re-evaluation differential.
REPAIRBENCH_OUT ?= BENCH_PR10.json

.PHONY: tier1 check build vet test race-fast fuzz-smoke cover-kernel drcprofile editprofile bench benchcmp fmt-check servebench clusterbench chipbench fleetbench surrogatebench repairbench

# benchmark/ is a module of its own, so ./... above never reaches it;
# without this an exported-name change breaks the benchmark silently.
# The -race pass is also where the snapshot-sharing contract is held:
# TestDeltaChainRandomEdits (internal/tiling, not skipped by -short)
# chains deltas that share retained state and runs several off one
# snapshot at once.
tier1: ## build + vet + gofmt gate + full tests under the race detector
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) cover-kernel
	$(GO) vet -C benchmark . && $(GO) test -C benchmark .

check: ## quick gate: build + vet + full tests (no race detector)
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) vet -C benchmark . && $(GO) test -C benchmark .

fmt-check: ## fail if any file is not gofmt-formatted
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race-fast: ## race pass skipping the slow full-scorecard experiments
	$(GO) test -race -short ./...

fuzz-smoke: ## 20 s of the packed-bitmap morphology fuzzer, 10 s of the sparse-blur fuzzer and 10 s of the boundary-edge fuzzer, each against its oracle
	$(GO) test -run='^$$' -fuzz=FuzzBitmapMorphology -fuzztime=20s ./internal/litho
	$(GO) test -run='^$$' -fuzz=FuzzSparseBlur -fuzztime=10s ./internal/litho
	$(GO) test -run='^$$' -fuzz=FuzzBoundaryEdges -fuzztime=10s ./internal/geom

# Where cover-kernel keeps its profile (bin/ is gitignored).
COVER_DIR ?= bin/cover

# The dense arm of the litho kernel sat in raster.go from PR 4 to PR 15
# without one statement of it ever executing, in tests or anywhere
# else; nothing was watching. This is the watch: the package's own
# tests must reach every function of the kernel files and 90 % of the
# statements of the two that hold the simulation path.
cover-kernel: ## litho kernel coverage gate: no function of raster.go/sparse.go/optics.go at 0 %, raster.go and sparse.go each >= 90 % of statements
	@mkdir -p $(COVER_DIR)
	$(GO) test -count=1 -coverprofile=$(COVER_DIR)/litho.out ./internal/litho
	@$(GO) tool cover -func=$(COVER_DIR)/litho.out | awk ' \
		$$1 ~ /\/(raster|sparse|optics)\.go:/ && $$NF == "0.0%" { \
			print "cover-kernel: " $$1 " " $$2 " is never executed by ./internal/litho tests"; bad = 1 } \
		END { exit bad }'
	@awk 'NR > 1 { split($$1, loc, ":"); n = split(loc[1], dir, "/"); f = dir[n]; \
			tot[f] += $$2; if ($$3 > 0) cov[f] += $$2 } \
		END { for (f in tot) if (f == "raster.go" || f == "sparse.go") { \
				pct = 100 * cov[f] / tot[f]; \
				printf "cover-kernel: %s %d/%d statements (%.1f%%)\n", f, cov[f], tot[f], pct; \
				if (pct < 90) { print "cover-kernel: " f " is below 90%"; bad = 1 } } \
			exit bad }' $(COVER_DIR)/litho.out

# Where drcprofile keeps its binary and profiles (bin/ is gitignored).
DRCPROFILE_DIR ?= bin/drcprofile

drcprofile: ## CPU + allocation profile of the signoff DRC path (100k-rect chip, no tile cache), drc.* and geom.* by cumulative cost
	@mkdir -p $(DRCPROFILE_DIR)
	$(GO) build -o $(DRCPROFILE_DIR)/dfmscore ./cmd/dfmscore
	$(DRCPROFILE_DIR)/dfmscore -chip -chiprects 100000 -chipcache 0 \
		-cpuprofile $(DRCPROFILE_DIR)/cpu.prof -memprofile $(DRCPROFILE_DIR)/mem.prof
	$(GO) tool pprof -top -cum -nodecount=40 -show='drc\.|geom\.' $(DRCPROFILE_DIR)/dfmscore $(DRCPROFILE_DIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount=25 -show='drc\.|geom\.' $(DRCPROFILE_DIR)/dfmscore $(DRCPROFILE_DIR)/mem.prof

# Where editprofile keeps its binary and profile (bin/ is gitignored).
EDITPROFILE_DIR ?= bin/editprofile

editprofile: ## CPU profile of the in-design edit cycle (100k-rect chip, repair loop + delta-vs-full differential): stitch, score, deck and formatting by cumulative cost
	@mkdir -p $(EDITPROFILE_DIR)
	$(GO) build -o $(EDITPROFILE_DIR)/dfmscore ./cmd/dfmscore
	$(EDITPROFILE_DIR)/dfmscore -chip -chiprects 100000 -repair -deltabench \
		-cpuprofile $(EDITPROFILE_DIR)/cpu.prof
	$(GO) tool pprof -top -cum -nodecount=40 -show='tiling\.|repair\.|drc\.|fmt\.|strconv\.|sort' $(EDITPROFILE_DIR)/dfmscore $(EDITPROFILE_DIR)/cpu.prof

bench: ## run the tier-1 benchmark set and record $(BENCH_OUT)
	$(GO) test -run='^$$' -bench=. -benchmem . | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -check $(BENCH_OUT)

chipbench: ## full-chip streaming benches (tiled / warm / flat) -> $(CHIPBENCH_OUT)
	$(GO) test -run='^$$' -bench='^BenchmarkChip' -benchmem . | $(GO) run ./cmd/benchjson -o $(CHIPBENCH_OUT)
	$(GO) run ./cmd/benchjson -check $(CHIPBENCH_OUT)

surrogatebench: ## surrogate-gated vs exact-only chip scan -> $(SURROGATEBENCH_OUT)
	$(GO) test -run='^$$' -bench='^BenchmarkSurrogate' -benchtime=1x -benchmem -timeout 90m . \
		| $(GO) run ./cmd/benchjson -o $(SURROGATEBENCH_OUT)
	$(GO) run ./cmd/benchjson -check $(SURROGATEBENCH_OUT)

repairbench: ## in-design repair loop + incremental re-eval differential -> $(REPAIRBENCH_OUT)
	$(GO) test -run='^$$' -bench='^BenchmarkRepair' -benchtime=1x -benchmem -timeout 90m . \
		| $(GO) run ./cmd/benchjson -o $(REPAIRBENCH_OUT)
	$(GO) run ./cmd/benchjson -check $(REPAIRBENCH_OUT)

fleetbench: ## distributed full-chip chaos benchmark -> $(FLEETBENCH_OUT)
	$(GO) build -o bin/dfmload ./cmd/dfmload
	./bin/dfmload -bench $(FLEETBENCH_FLAGS) | $(GO) run ./cmd/benchjson -o $(FLEETBENCH_OUT)
	$(GO) run ./cmd/benchjson -check $(FLEETBENCH_OUT)

benchcmp: ## per-benchmark deltas: $(BENCH_BASE) vs $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASE) $(BENCH_OUT)

servebench: ## serving benchmark: dfmd + dfmload -> $(SERVEBENCH_OUT)
	$(GO) build -o bin/dfmd ./cmd/dfmd
	$(GO) build -o bin/dfmload ./cmd/dfmload
	@set -e; \
	./bin/dfmd -addr $(DFMD_ADDR) -quiet & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null' EXIT; \
	./bin/dfmload -addr http://$(DFMD_ADDR) -bench $(SERVEBENCH_FLAGS) \
		| $(GO) run ./cmd/benchjson -o $(SERVEBENCH_OUT)

clusterbench: ## chaos benchmark: router + 3 backends, n0 killed mid-run -> $(CLUSTERBENCH_OUT)
	$(GO) build -o bin/dfmload ./cmd/dfmload
	@set -e; \
	{ ./bin/dfmload -bench $(CLUSTERBENCH_FLAGS) -policy affinity; \
	  ./bin/dfmload -bench $(CLUSTERBENCH_FLAGS) -policy round-robin; } \
		| $(GO) run ./cmd/benchjson -o $(CLUSTERBENCH_OUT)
