# Build / verify targets. tier1 is the full gate: compile, vet, and
# the complete test suite under the race detector (the harness runs
# technique evaluators concurrently, so race-cleanliness is part of
# correctness). Expect several minutes: the litho/OPC experiment
# tests are heavy under -race. Use `make check` for the quick
# pre-commit loop and `make race-fast` for a race pass that skips
# the slow full-scorecard experiments.

GO ?= go

.PHONY: tier1 check build vet test race-fast fuzz-smoke cover-kernel cover-engine cover-deck drcprofile editprofile fleetprofile lithoprofile bench bench-smoke examples-smoke docs-check fmt-check unit-check

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
	$(MAKE) unit-check
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) cover-kernel
	$(MAKE) cover-engine
	$(MAKE) cover-deck
	$(MAKE) bench-smoke
	$(MAKE) examples-smoke
	$(MAKE) docs-check
	$(GO) vet -C benchmark . && $(GO) test -C benchmark .

check: ## quick gate: build + vet + full tests (no race detector)
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) vet -C benchmark . && $(GO) test -C benchmark .

fmt-check: ## fail if any file is not gofmt-formatted
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# A `go test -bench` row means time and allocations and nothing else,
# and only `bash benchmark/run.sh` writes a benchmark record (the
# record files committed at the repo root are read-only history). A
# count or a ratio printed as a benchmark row is averaged with timings
# by whatever reads the output; a recipe that names a committed record
# overwrites it.
unit-check: ## fail if Go code outside benchmark/ hand-prints a benchmark row, or a recipe here names a committed bench record
	@out=$$(grep -rnE --include='*.go' 'ns/op(\\n|")' . | grep -v '^\./benchmark/'); if [ -n "$$out" ]; then \
		echo "hand-written ns/op row (print the real unit on a plain line):"; printf '%s\n' "$$out"; exit 1; fi
	@out=$$(grep -n 'BENCH[_]PR' Makefile); if [ -n "$$out" ]; then \
		echo "Makefile names a committed bench record:"; printf '%s\n' "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race-fast: ## race pass skipping the slow full-scorecard experiments
	$(GO) test -race -short ./...

fuzz-smoke: ## 20 s of the packed-bitmap morphology fuzzer, 10 s of the sparse-blur fuzzer and 10 s of the boundary-edge fuzzer, each against its oracle; 10 s of the spatial index, frozen layout against grown against brute force; 10 s of the tile wire decoders on arbitrary bytes (no panic, bounded allocation, re-encode is a fixed point with the same key)
	$(GO) test -run='^$$' -fuzz=FuzzBitmapMorphology -fuzztime=20s ./internal/litho
	$(GO) test -run='^$$' -fuzz=FuzzSparseBlur -fuzztime=10s ./internal/litho
	$(GO) test -run='^$$' -fuzz=FuzzBoundaryEdges -fuzztime=10s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzIndexQuery -fuzztime=10s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzTileWire -fuzztime=10s ./internal/tiling

# Where the coverage gates keep their profiles (bin/ is gitignored).
COVER_DIR ?= bin/cover

# cover-gate runs one package's own tests under a coverage profile and
# fails if they leave a function of the named files unexecuted, or a
# file that must also reach 90 % of its statements below that.
# $(1) target name, $(2) package, $(3) base names (a|b|c, no .go) whose
# functions may not sit at 0 %, $(4) those of them held to 90 %, or empty.
define cover-gate
	@mkdir -p $(COVER_DIR)
	$(GO) test -count=1 -coverprofile=$(COVER_DIR)/$(1).out $(2)
	@$(GO) tool cover -func=$(COVER_DIR)/$(1).out | awk ' \
		$$1 ~ /\/($(3))\.go:/ && $$NF == "0.0%" { \
			print "$(1): " $$1 " " $$2 " is never executed by $(2) tests"; bad = 1 } \
		END { exit bad }'
	@awk -v held='$(4)' 'BEGIN { n = split(held, h, "|"); for (i = 1; i <= n; i++) want[h[i] ".go"] = 1 } \
		NR > 1 { split($$1, loc, ":"); n = split(loc[1], dir, "/"); f = dir[n]; \
			tot[f] += $$2; if ($$3 > 0) cov[f] += $$2 } \
		END { for (f in tot) if (f in want) { \
				pct = 100 * cov[f] / tot[f]; \
				printf "$(1): %s %d/%d statements (%.1f%%)\n", f, cov[f], tot[f], pct; \
				if (pct < 90) { print "$(1): " f " is below 90%"; bad = 1 } } \
			exit bad }' $(COVER_DIR)/$(1).out
endef

# The dense arm of the litho kernel sat in raster.go from PR 4 to PR 15
# without one statement of it ever executing, in tests or anywhere
# else; nothing was watching. This is the watch: the package's own
# tests must reach every function of the kernel files and 90 % of the
# statements of the two that hold the simulation path.
cover-kernel: ## litho kernel coverage gate: no function of raster.go/sparse.go/optics.go/bitmap.go at 0 %, raster.go and sparse.go each >= 90 % of statements
	$(call cover-gate,cover-kernel,./internal/litho,raster|sparse|optics|bitmap,raster|sparse)

# The same watch on the path every chip unit takes — cut (plan.go), key
# (key.go), validate / execute / absorb (wire.go): unit.String sat there
# unexecuted until PR 20 deleted it with the type.
cover-engine: ## unit path coverage gate: no function of internal/tiling's plan.go/wire.go/key.go at 0 % under the package's own tests
	$(call cover-gate,cover-engine,./internal/tiling,plan|wire|key,)

# And on what every tile's deck stands on: the index and the boundary
# extraction under ./internal/geom's own tests, the prepared layer and
# the rules that ask it under ./internal/drc's. The index has two
# layouts and a hand-over between them; 90 % of its statements keeps
# an arm of that from going unexecuted the way the dense blur did.
cover-deck: ## deck path coverage gate: no function of internal/geom's index.go/edge.go, nor of internal/drc's layer.go/checks.go/density.go, at 0 % under the package's own tests; index.go >= 90 % of statements
	$(call cover-gate,cover-deck-geom,./internal/geom,index|edge,index)
	$(call cover-gate,cover-deck-drc,./internal/drc,layer|checks|density,)

# Where drcprofile keeps its binary and profiles (bin/ is gitignored).
DRCPROFILE_DIR ?= bin/drcprofile

drcprofile: ## CPU + allocation profile of the signoff DRC path (100k-rect chip, no tile cache), drc.* and geom.* by cumulative cost; then the counters of what the deck prepared and asked: index bins laid / occupied, endcap gates asked / built
	@mkdir -p $(DRCPROFILE_DIR)
	$(GO) build -o $(DRCPROFILE_DIR)/dfmscore ./cmd/dfmscore
	$(DRCPROFILE_DIR)/dfmscore -chip -chiprects 100000 -chipcache 0 -metrics $(DRCPROFILE_DIR)/metrics.json \
		-cpuprofile $(DRCPROFILE_DIR)/cpu.prof -memprofile $(DRCPROFILE_DIR)/mem.prof
	$(GO) tool pprof -top -cum -nodecount=40 -show='drc\.|geom\.' $(DRCPROFILE_DIR)/dfmscore $(DRCPROFILE_DIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount=25 -show='drc\.|geom\.' $(DRCPROFILE_DIR)/dfmscore $(DRCPROFILE_DIR)/mem.prof
	@grep -oE '"(geom\.index\.bins\.(laid|occupied)|drc\.endcap\.gates\.(asked|built))": *[0-9]+' $(DRCPROFILE_DIR)/metrics.json

# Where editprofile keeps its binary and profile (bin/ is gitignored).
EDITPROFILE_DIR ?= bin/editprofile

editprofile: ## CPU profile of the in-design edit cycle (100k-rect chip, repair loop + delta-vs-full differential): stitch, score, deck and formatting by cumulative cost
	@mkdir -p $(EDITPROFILE_DIR)
	$(GO) build -o $(EDITPROFILE_DIR)/dfmscore ./cmd/dfmscore
	$(EDITPROFILE_DIR)/dfmscore -chip -chiprects 100000 -repair -deltabench \
		-cpuprofile $(EDITPROFILE_DIR)/cpu.prof
	$(GO) tool pprof -top -cum -nodecount=40 -show='tiling\.|repair\.|drc\.|fmt\.|strconv\.|sort' $(EDITPROFILE_DIR)/dfmscore $(EDITPROFILE_DIR)/cpu.prof

# Where fleetprofile keeps its test binary and profile (bin/ is gitignored).
FLEETPROFILE_DIR ?= bin/fleetprofile

fleetprofile: ## CPU profile of the fleet path (BenchmarkFleetChip: 50k-rect chip, router + 2 in-process nodes, cold pass A then resubmitted pass B): encoding/json, wire codec, the unit's one sort and its key (hashed where it is built and on the node that serves it; the router only forwards), router, client and deck by cumulative cost
	@mkdir -p $(FLEETPROFILE_DIR)
	$(GO) test -run='^$$' -bench='^BenchmarkFleetChip$$' -benchtime=20x -benchmem \
		-cpuprofile $(FLEETPROFILE_DIR)/cpu.prof -o $(FLEETPROFILE_DIR)/fleet.test ./internal/fleet
	$(GO) tool pprof -top -cum -nodecount=40 -show='encoding/json|tiling\.|server\.|router\.|client\.|drc\.|slices\.' $(FLEETPROFILE_DIR)/fleet.test $(FLEETPROFILE_DIR)/cpu.prof

# Where lithoprofile keeps its test binary and profiles (bin/ is gitignored).
LITHOPROFILE_DIR ?= bin/lithoprofile

lithoprofile: ## ns/op of the generator's scan window and of the wall-to-wall one, then a CPU + allocation profile of the first (BenchmarkScanWindow, one P): the band blur, the threshold sink, the morphology, and what the runtime spends clearing and allocating under them, by cumulative cost
	@mkdir -p $(LITHOPROFILE_DIR)
	$(GO) test -run='^$$' -bench='^BenchmarkScanWindow(Dense)?$$' -benchtime=20x -benchmem -cpu 1 . | grep '^Benchmark'
	$(GO) test -run='^$$' -bench='^BenchmarkScanWindow$$' -benchtime=40x -benchmem -cpu 1 \
		-cpuprofile $(LITHOPROFILE_DIR)/cpu.prof -memprofile $(LITHOPROFILE_DIR)/mem.prof -o $(LITHOPROFILE_DIR)/repro.test .
	$(GO) tool pprof -top -cum -nodecount=40 -show='litho\.|runtime\.memclr|runtime\.mallocgc' $(LITHOPROFILE_DIR)/repro.test $(LITHOPROFILE_DIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount=25 -show='litho\.|runtime\.memclr|runtime\.mallocgc' $(LITHOPROFILE_DIR)/repro.test $(LITHOPROFILE_DIR)/mem.prof

bench: ## every root-module benchmark (BenchmarkExperiment/<id> times the paper's experiments), time and allocations only; writes no file and regenerates no table (records come from `bash benchmark/run.sh`, the tables from `go test -run TestExperimentTables -update .`)
	$(GO) test -run='^$$' -bench=. -benchmem .

bench-smoke: ## one iteration of the five kernel micro-rows, of one experiment of the table, of the tile wire codec and of the tile key, of the index build (dense and sparse extent) and of the deck and the endcap rule on a tile, so the gate executes the benchmarks and does not merely compile them
	$(GO) test -run='^$$' -bench='^Benchmark(GeomBoolean|DRCBlock|BitmapOpen|ScanWindow|ScanWindowDense)$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkExperiment$$/^F5$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkTile(Wire|Key)$$' -benchtime=1x -benchmem ./internal/tiling
	$(GO) test -run='^$$' -bench='^BenchmarkIndexBuildQuery$$' -benchtime=1x -benchmem ./internal/geom
	$(GO) test -run='^$$' -bench='^Benchmark(DeckTile|Endcap)$$' -benchtime=1x -benchmem ./internal/drc

# The same run is part of `go test ./...`; the target names it. A flag
# no command passes fails the test beside it, TestEveryFlagAnswersToASetter.
docs-check: ## fail, by file and line, on a path, Make target, go test regexp, test or benchmark name, or binary flag in README.md, DESIGN.md, doc.go, the verify skill or EXPERIMENTS.md above R1 that nothing in the tree answers to
	$(GO) test -count=1 -run 'TestDocsNameWhatExists' ./internal/surface

# internal/surface counts examples/* as callers (examples/quickstart is
# the reason internal/lvs is in the tree), and an example that only
# compiles is a dead caller. All five are seeded and print no timings, so
# what they print is held to a committed file: examples/viayield and
# examples/dptflow re-type the T1 and F5 loops, and the copy a user runs
# must not drift from the rows testdata/experiments.golden pins.
examples-smoke: ## run each examples/* program once, require exit 0 and diff what it prints against its examples/<name>/output.golden
	@for d in examples/*/; do echo "$(GO) run ./$$d | diff $${d}output.golden -"; \
		out=$$($(GO) run ./$$d) || exit 1; \
		printf '%s\n' "$$out" | diff $${d}output.golden - || exit 1; done
