# Build / verify targets. tier1 is the full gate: compile, vet, and
# the complete test suite under the race detector (the harness runs
# technique evaluators concurrently, so race-cleanliness is part of
# correctness). Expect several minutes: the litho/OPC experiment
# tests are heavy under -race. Use `make check` for the quick
# pre-commit loop and `make race-fast` for a race pass that skips
# the slow full-scorecard experiments.

GO ?= go

.PHONY: tier1 check build vet test race-fast fuzz-smoke cover-kernel cover-engine cover-deck cover-harness cover-wire cover-opc cover-dfm cover-fleet drcprofile scoreprofile editprofile fleetprofile lithoprofile bench bench-smoke examples-smoke regold docs-check fmt-check unit-check

# benchmark/ is a module of its own, so ./... above never reaches it;
# without this an exported-name change breaks the benchmark silently.
# The -race pass is also where the snapshot-sharing contract is held:
# TestDeltaChainRandomEdits (internal/tiling, not skipped by -short)
# chains deltas that share retained state and runs several off one
# snapshot at once. The litho kernel's float loops have an assembly arm
# on amd64 and a Go arm everywhere else: the arm64 vet proves the Go arm
# builds off amd64 (the package's tests run it on every host).
tier1: ## build + vet + gofmt gate + full tests under the race detector
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(MAKE) unit-check
	$(GO) test -race ./...
	GOARCH=arm64 $(GO) vet ./...
	$(MAKE) fuzz-smoke
	$(MAKE) cover-kernel
	$(MAKE) cover-engine
	$(MAKE) cover-deck
	$(MAKE) cover-harness
	$(MAKE) cover-wire
	$(MAKE) cover-opc
	$(MAKE) cover-dfm
	$(MAKE) cover-fleet
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

fuzz-smoke: ## 20 s of the morphology fuzzer (the streaming erosion and dilation stages, the run labeller and the hotspot detector against the per-pixel oracle), 10 s of the sparse-blur fuzzer (the banded update against the per-rect oracle and the dense blur, both kernel arms too) and 10 s of the boundary-edge fuzzer, each against its oracle; 10 s of the litho kernel's assembly routines (the blur's rank-1 update, the square, the threshold word) against their Go loops, the rank-1 update over 0–7 rows with guard words between them; 10 s of geom's region ops and area queries against the slab oracle; 10 s of the spatial index over a fuzzed extent against brute force; 10 s of the band walk, clipped area, clip and connected components of a normal-form set against a linear scan, ClipArea, Intersect and a brute-force union-find; 10 s of the deck's facing-edge scans and MinArea against their oracles; 10 s of the tile wire's one reader, tiling.ReadRequest and ReadResult, on arbitrary bytes (no panic, bounded allocation, re-encode is a fixed point with the same key); 10 s of the stage-A stitch on random tile outputs against the whole-chip oracle, and of a delta over a random set of recomputed tiles against a from-scratch stitch; 10 s of a unit's packed-key sort against the comparator sort; 10 s of keysort's radix sort against slices.Sort and its permutation against a gather; 10 s of a pattern's two-form canonical hash against the eight-orientation oracle; 10 s of the router's rendezvous placement over 1–8 backend names (a permutation whose head is the argmax, kept when another name is dropped, moved only onto a name added); 10 s of the router's per-backend health record against its reference model over any sequence of probe results, admissions and request outcomes; 10 s of the one job route of dfmd and of the router on arbitrary bodies and placement claims (200, 400 or 413 with a JSON body, no dropped connection, the router's answer dfmd's); 10 s of the job wire's one-pass reading against its two-stage reading, as a request and as an answer, on arbitrary bytes (a body the one pass takes, the two-stage reading takes into the same job or answer, re-encoded to the same bytes)
	$(GO) test -run='^$$' -fuzz=FuzzBitmapMorphology -fuzztime=20s -fuzzminimizetime=2s ./internal/litho
	$(GO) test -run='^$$' -fuzz=FuzzSparseBlur -fuzztime=10s -fuzzminimizetime=2s ./internal/litho
	$(GO) test -run='^$$' -fuzz=FuzzKernelLoops -fuzztime=10s -fuzzminimizetime=2s ./internal/litho
	$(GO) test -run='^$$' -fuzz=FuzzBoundaryEdges -fuzztime=10s -fuzzminimizetime=2s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzRegionOps -fuzztime=10s -fuzzminimizetime=2s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzIndexQuery -fuzztime=10s -fuzzminimizetime=2s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzBanded -fuzztime=10s -fuzzminimizetime=2s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzDeckScans -fuzztime=10s -fuzzminimizetime=2s ./internal/drc
	$(GO) test -run='^$$' -fuzz=FuzzTileWire -fuzztime=10s -fuzzminimizetime=2s ./internal/tiling
	$(GO) test -run='^$$' -fuzz=FuzzStitch -fuzztime=10s -fuzzminimizetime=2s ./internal/tiling
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalize -fuzztime=10s -fuzzminimizetime=2s ./internal/tiling
	$(GO) test -run='^$$' -fuzz=FuzzKeySort -fuzztime=10s -fuzzminimizetime=2s ./internal/keysort
	$(GO) test -run='^$$' -fuzz=FuzzCanonHash -fuzztime=10s -fuzzminimizetime=2s ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzPlacement -fuzztime=10s -fuzzminimizetime=2s ./internal/router
	$(GO) test -run='^$$' -fuzz=FuzzBackendHealth -fuzztime=10s -fuzzminimizetime=2s ./internal/router
	$(GO) test -run='^$$' -fuzz=FuzzSubmit -fuzztime=10s -fuzzminimizetime=2s ./internal/wirecompat
	$(GO) test -run='^$$' -fuzz=FuzzJobWire -fuzztime=10s -fuzzminimizetime=2s ./internal/server

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
# statements of the two that hold the simulation path. kernel.go holds
# the Go loops the assembly arm replaces on an AVX host: the tests run
# them there as the reference, and this keeps them run. hotspot.go is
# the scan on top of the kernel: the window, the detector, the seam rule
# and the pixel bound the tile wire checks before it allocates;
# stream.go is the detector's morphology stages and labeller, held to
# 90 % like the simulation path they run inside. window.go is what the
# SRAF and restricted-rules verdicts read off a mask: the FE matrix and
# the PV band.
cover-kernel: ## litho kernel coverage gate: no function of raster.go/sparse.go/optics.go/bitmap.go/stream.go/kernel.go/hotspot.go/window.go at 0 %, raster.go, sparse.go and stream.go each >= 90 % of statements
	$(call cover-gate,cover-kernel,./internal/litho,raster|sparse|optics|bitmap|stream|kernel|hotspot|window,raster|sparse|stream)

# The same watch on the path every chip unit takes — extract
# (extract.go), cut (plan.go), key (key.go), validate / execute / absorb
# (wire.go), scan (scan.go, every engine's stage-B driver), compute once
# per cache (cache.go, whose wait-and-fallback path a race alone would
# reach), pack and unpack (packed.go), and around them the evaluation
# (tiling.go), the delta that splices a snapshot or re-plans an edit it
# no longer fits (incremental.go) and the stitch (stitch.go): unit.String
# sat there unexecuted until PR 20 deleted it with the type. And on what
# the extraction stands on: layout's one summary walk (Extents), Read's
# refusal of a file that flattens past its bound or names an unknown
# technology, and the chip generator.
cover-engine: ## unit path coverage gate: no function of internal/tiling's extract.go/plan.go/wire.go/key.go/scan.go/cache.go/packed.go/incremental.go/stitch.go/tiling.go, nor of internal/layout's layout.go/io.go/chip.go, at 0 % under the package's own tests
	$(call cover-gate,cover-engine,./internal/tiling,extract|plan|wire|key|scan|cache|packed|incremental|stitch|tiling,)
	$(call cover-gate,cover-engine-layout,./internal/layout,layout|io|chip,)

# And on what every tile's deck stands on: the index, the boundary
# extraction, the region algebra and the band walk under
# ./internal/geom's own tests,
# the prepared layer and the rules that ask it under ./internal/drc's,
# and the key sort the sweep, the boundary and a unit's canonical order
# share under ./internal/keysort's. The index clamps what reaches past
# its extent, the sweep has five coverage rules, the key sort two arms; 90 % of the statements of index.go, sweep.go, banded.go and keysort.go
# keeps an arm from going unexecuted the way the dense blur and
# DoubleCoverArea's overlapping-operand branch did.
cover-deck: ## deck path coverage gate: no function of internal/geom's index.go/edge.go/sweep.go/rectset.go/banded.go, of internal/drc's layer.go/checks.go/density.go/enclosure.go, nor of internal/keysort's keysort.go at 0 % under the package's own tests; index.go, sweep.go, banded.go and keysort.go >= 90 % of statements
	$(call cover-gate,cover-deck-geom,./internal/geom,index|edge|sweep|rectset|banded,index|sweep|banded)
	$(call cover-gate,cover-deck-drc,./internal/drc,layer|checks|density|enclosure,)
	$(call cover-gate,cover-deck-keysort,./internal/keysort,keysort,keysort)

# And on the one task executor: the scorecard's batch and every dfmd
# job run through pool.go's workers and harness.go's Run, which hands a
# batch to a pool sized to it, each task run once, so 90 % of their
# statements keeps a path of either from going unexercised the way
# Pool.Workers sat outside the package's own tests.
cover-harness: ## executor coverage gate: no function of internal/harness's harness.go/pool.go/foreach.go/metrics.go at 0 % under the package's own tests; harness.go and pool.go >= 90 % of statements
	$(call cover-gate,cover-harness,./internal/harness,harness|pool|foreach|metrics,harness|pool)

# And on the job wire: an accepted job is read in one pass, so the
# two-stage reading in wire.go runs only for a body the one pass passes
# on (an error, an unknown field, a repeated or escaped member name), and
# 90 % of the file's statements keeps that reading, which words every
# refusal, from going unexercised.
cover-wire: ## job wire coverage gate: no function of internal/server's wire.go at 0 % under the package's own tests; wire.go >= 90 % of statements
	$(call cover-gate,cover-wire,./internal/server,wire,wire)

# And on the correction loop: model-based OPC is pwopc.go's loop at one
# corner, so 90 % of the statements of opc.go (fragments, bias, MRC caps)
# and pwopc.go (the loop) keeps a path of either entry point from going
# unexercised; ilt.go may not hold a function the tests never run.
cover-opc: ## OPC coverage gate: no function of internal/opc's opc.go/pwopc.go/ilt.go at 0 % under the package's own tests; opc.go and pwopc.go >= 90 % of statements
	$(call cover-gate,cover-opc,./internal/opc,opc|pwopc|ilt,opc|pwopc)

# And on the scorecard itself: every technique is a row of runall.go's
# table run by its one driver, over the fixtures, fixes and measures of
# techniques.go and dpt_eval.go, and chip.go is the full-chip run behind
# dfmscore -chip, which no other test reached before TestEvalChipTiling.
cover-dfm: ## scorecard coverage gate: no function of internal/dfm's techniques.go/dpt_eval.go/runall.go/chip.go at 0 % under the package's own tests
	$(call cover-gate,cover-dfm,./internal/dfm,techniques|dpt_eval|runall|chip,)

# And on the serving tier's failure vocabulary: what a failed call is
# (client.ClassOf), how long to back off (RetryPolicy.Wait), the retry
# loop and the tile submitter on the client side; the router's route,
# its health record and its HTTP answers, overload and no-backend
# included, on the other. Each decision is made in one place, so a
# branch no test runs is a decision nothing checks.
cover-fleet: ## serving-tier coverage gate: no function of internal/client's client.go/retry.go/tile.go, nor of internal/router's router.go/health.go/http.go, at 0 % under the package's own tests
	$(call cover-gate,cover-fleet-client,./internal/client,client|retry|tile,)
	$(call cover-gate,cover-fleet-router,./internal/router,router|health|http,)

# Where drcprofile keeps its binary and profiles (bin/ is gitignored).
DRCPROFILE_DIR ?= bin/drcprofile

drcprofile: ## CPU profile of the signoff DRC path over 30 uncached passes of the 100k-rect chip (BenchmarkChipSignoff: dfmscore -chip -chiprects 100000 -chipcache 0's pass) with its sample count, and an allocation profile of one dfmscore pass, drc.* and geom.* by cumulative cost (a tile worker reuses one extraction buffer and one drc.Context for all its tiles, so NewContext, Normalize and BoundarySides allocate per worker, not per tile); then the counters of what the deck asked: facing pairs found / kept, endcap gates asked / built; and the stitch's time in that pass (tiling.stitch.ns, one observation per evaluation)
	@mkdir -p $(DRCPROFILE_DIR)
	$(GO) build -o $(DRCPROFILE_DIR)/dfmscore ./cmd/dfmscore
	$(DRCPROFILE_DIR)/dfmscore -chip -chiprects 100000 -chipcache 0 -metrics $(DRCPROFILE_DIR)/metrics.json \
		-memprofile $(DRCPROFILE_DIR)/mem.prof
	$(GO) test -run='^$$' -bench='^BenchmarkChipSignoff$$' -benchtime=30x -benchmem \
		-cpuprofile $(DRCPROFILE_DIR)/cpu.prof -o $(DRCPROFILE_DIR)/repro.test .
	@$(GO) tool pprof -sample_index=samples -top -nodecount=1 $(DRCPROFILE_DIR)/repro.test $(DRCPROFILE_DIR)/cpu.prof 2>/dev/null | grep -oE 'Total samples = [0-9]+'
	$(GO) tool pprof -top -cum -nodecount=40 -show='drc\.|geom\.' $(DRCPROFILE_DIR)/repro.test $(DRCPROFILE_DIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount=25 -show='drc\.|geom\.' $(DRCPROFILE_DIR)/dfmscore $(DRCPROFILE_DIR)/mem.prof
	@grep -oE '"(drc\.facing\.pairs\.(found|kept)|drc\.endcap\.gates\.(asked|built))": *[0-9]+' $(DRCPROFILE_DIR)/metrics.json
	@grep -A3 '"tiling\.stitch\.ns"' $(DRCPROFILE_DIR)/metrics.json | tr -d ' \n' | sed 's/,$$/\n/'

# Where scoreprofile keeps its test binary and profiles (bin/ is gitignored).
SCOREPROFILE_DIR ?= bin/scoreprofile

scoreprofile: ## CPU + allocation profile of the scorecard (BenchmarkScorecard: dfm.RunAllConfig over seeds 11-14, 40 iterations), dfm.*, pattern.*, fill.*, drc.*, geom.*, litho.* and opc.* by cumulative cost; the benchmark row ends on the sweep's y-events per scorecard; then the counters of one dfmscore pass at seed 11: where its renders' grids came from (litho.raster.grid.new / reused), its raster misses and its OPC runs
	@mkdir -p $(SCOREPROFILE_DIR)
	$(GO) test -run='^$$' -bench='^BenchmarkScorecard$$' -benchtime=40x -benchmem \
		-cpuprofile $(SCOREPROFILE_DIR)/cpu.prof -memprofile $(SCOREPROFILE_DIR)/mem.prof -o $(SCOREPROFILE_DIR)/repro.test .
	$(GO) tool pprof -top -cum -nodecount=40 -show='dfm\.|pattern\.|fill\.|drc\.|geom\.|litho\.|opc\.' $(SCOREPROFILE_DIR)/repro.test $(SCOREPROFILE_DIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount=25 -show='dfm\.|pattern\.|fill\.|drc\.|geom\.|litho\.|opc\.' $(SCOREPROFILE_DIR)/repro.test $(SCOREPROFILE_DIR)/mem.prof
	$(GO) build -o $(SCOREPROFILE_DIR)/dfmscore ./cmd/dfmscore
	$(SCOREPROFILE_DIR)/dfmscore -seed 11 -metrics $(SCOREPROFILE_DIR)/metrics.json > /dev/null
	@grep -oE '"(litho\.raster\.grid\.(new|reused)|litho\.raster\.cache\.miss|opc\.model\.runs)": *[0-9]+' $(SCOREPROFILE_DIR)/metrics.json

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

fleetprofile: ## CPU profile of the fleet path (BenchmarkFleetChip: 50k-rect chip, router + 2 in-process nodes, cold pass A then resubmitted pass B): the job envelope, written in one encoding/json pass with the tile packed inside it and read in one strict pass, the columns decoded in place and unpacked by tiling.UnpackRequest or UnpackResult (server.decodeJobRequest, client eval's DecodeJobStatus; no json.RawMessage and no second Decoder under either for an accepted body), the unit's one sort and its key (hashed where it is built and on the node that serves it; the router only forwards), router, client and deck by cumulative cost
	@mkdir -p $(FLEETPROFILE_DIR)
	$(GO) test -run='^$$' -bench='^BenchmarkFleetChip$$' -benchtime=20x -benchmem \
		-cpuprofile $(FLEETPROFILE_DIR)/cpu.prof -o $(FLEETPROFILE_DIR)/fleet.test ./internal/fleet
	$(GO) tool pprof -top -cum -nodecount=40 -show='encoding/json|tiling\.|server\.|router\.|client\.|drc\.|slices\.' $(FLEETPROFILE_DIR)/fleet.test $(FLEETPROFILE_DIR)/cpu.prof

# Where lithoprofile keeps its test binary and profiles (bin/ is gitignored).
LITHOPROFILE_DIR ?= bin/lithoprofile

lithoprofile: ## which arm of the kernel's float loops runs (litho.kernel.simd: 1 AVX assembly, 0 Go loops), how many rect footprints the banded blur summed into how many rank-1 updates (litho.blur.rects, litho.blur.updates: one update per footprint cluster of a y-band) and how many printed rows equalled the row before them, whose morphology the detector reuses (litho.hotspot.rows.equal), ns/op of the generator's scan window and of the wall-to-wall one, then a CPU + allocation profile of the first (BenchmarkScanWindow, one P): the banded blur and its one rank-1 update per y-band cluster, the threshold sink and the row stages and labeller it feeds, and what the runtime spends clearing and allocating under them, by cumulative cost
	@mkdir -p $(LITHOPROFILE_DIR)
	$(GO) run ./cmd/lithosim -lines -metrics $(LITHOPROFILE_DIR)/metrics.json > /dev/null
	@grep -oE '"litho\.(kernel\.simd|blur\.rects|blur\.updates|hotspot\.rows\.equal)": *[0-9]+' $(LITHOPROFILE_DIR)/metrics.json
	$(GO) test -run='^$$' -bench='^BenchmarkScanWindow(Dense)?$$' -benchtime=20x -benchmem -cpu 1 . | grep '^Benchmark'
	$(GO) test -run='^$$' -bench='^BenchmarkScanWindow$$' -benchtime=40x -benchmem -cpu 1 \
		-cpuprofile $(LITHOPROFILE_DIR)/cpu.prof -memprofile $(LITHOPROFILE_DIR)/mem.prof -o $(LITHOPROFILE_DIR)/repro.test .
	$(GO) tool pprof -top -cum -nodecount=40 -show='litho\.|runtime\.memclr|runtime\.mallocgc' $(LITHOPROFILE_DIR)/repro.test $(LITHOPROFILE_DIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount=25 -show='litho\.|runtime\.memclr|runtime\.mallocgc' $(LITHOPROFILE_DIR)/repro.test $(LITHOPROFILE_DIR)/mem.prof

bench: ## every root-module benchmark (BenchmarkExperiment/<id> times the paper's experiments), time and allocations only; writes no file and regenerates no table (records come from `bash benchmark/run.sh`, the tables from `go test -run TestExperimentTables -update .`)
	$(GO) test -run='^$$' -bench=. -benchmem .

bench-smoke: ## one iteration of the five kernel micro-rows (the geometry Booleans, a block DRC, the erosion and dilation row stages opening a scan window, the scan window with its streaming detector, the wall-to-wall window), of the scorecard that scoreprofile profiles (four seeds, every evaluator, litho's banded blur — one rank-1 update per y-band footprint cluster — under most of it), of one experiment of the table, of the fleet's fullest tile as a job each way through the job wire, of the tile key and of the sort before it, of the stitch of the 100k-rect signoff chip (from scratch, and a one-tile delta), of the key sort's two arms, of the index build (a dense set and a sparse one over a 190 µm extent), of the sweep under each coverage rule, of the boundary extraction, of the deck on a tile (a fresh context per tile, and one reset across three) and of the endcap rule (in one context reset per run, as a tile worker keeps one), of a layer's query mix on its bands, of the pattern hash's two arms and of drc-plus's pattern scan, so the gate executes the benchmarks and does not merely compile them
	$(GO) test -run='^$$' -bench='^Benchmark(GeomBoolean|DRCBlock|BitmapOpen|ScanWindow|ScanWindowDense)$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkScorecard$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkExperiment$$/^F5$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkJobWire$$' -benchtime=1x -benchmem ./internal/server
	$(GO) test -run='^$$' -bench='^BenchmarkTileKey$$' -benchtime=1x -benchmem ./internal/tiling
	$(GO) test -run='^$$' -bench='^BenchmarkCanonicalize$$' -benchtime=1x -benchmem ./internal/tiling
	$(GO) test -run='^$$' -bench='^BenchmarkStitch$$' -benchtime=1x -benchmem ./internal/tiling
	$(GO) test -run='^$$' -bench='^BenchmarkKeySort$$' -benchtime=1x -benchmem ./internal/keysort
	$(GO) test -run='^$$' -bench='^Benchmark(IndexBuildQuery|Sweep|BoundarySides)$$' -benchtime=1x -benchmem ./internal/geom
	$(GO) test -run='^$$' -bench='^Benchmark(DeckTile|Endcap|LayerQuery)$$' -benchtime=1x -benchmem ./internal/drc
	$(GO) test -run='^$$' -bench='^BenchmarkCanonHash$$' -benchtime=1x -benchmem ./internal/pattern
	$(GO) test -run='^$$' -bench='^BenchmarkMatcherScan$$' -benchtime=1x -benchmem ./internal/dfm

# One command re-mints every golden that holds result bits, after a
# change that moves them on purpose: the paper's tables and the chip
# results (root; TestChipResults logs one "old → new" line per moved
# value, the table EXPERIMENTS.md takes), the tile key schema's digests
# (internal/tiling) and what each example prints, written as
# examples-smoke diffs it. internal/server's jobwire.golden stays out:
# its bytes and refusal texts must not move with result bits.
regold: ## re-mint testdata/experiments.golden, testdata/chips.golden (printing each moved value, old → new), internal/tiling/testdata/keyschema.golden and every examples/<name>/output.golden; jobwire.golden stays out
	$(GO) test -count=1 -v -run 'TestExperimentTables|TestChipResults' . -update
	$(GO) test -count=1 -run TestKeySchemaPinned ./internal/tiling -update
	@for d in examples/*/; do echo "$(GO) run ./$$d > $${d}output.golden"; \
		out=$$($(GO) run ./$$d) || exit 1; \
		printf '%s\n' "$$out" > $${d}output.golden; done

# The same run is part of `go test ./...`; the target names it. A flag
# no command passes fails the test beside it, TestEveryFlagAnswersToASetter.
docs-check: ## fail, by file and line, on a path, Make target, go test regexp, test or benchmark name, or binary flag in README.md, DESIGN.md, doc.go, the verify skill, EXPERIMENTS.md above R1 or an R-section heading that nothing in the tree answers to
	$(GO) test -count=1 -run 'TestDocsNameWhatExists' ./internal/surface

# internal/surface counts examples/* as callers (examples/quickstart is
# the only caller of yield's systematic-yield and wafer-economics
# functions), and an example that only compiles is a dead caller.
# All five are seeded and print no timings, so
# what they print is held to a committed file: examples/viayield and
# examples/dptflow re-type the T1 and F5 loops, and the copy a user runs
# must not drift from the rows testdata/experiments.golden pins.
examples-smoke: ## run each examples/* program once, require exit 0 and diff what it prints against its examples/<name>/output.golden
	@for d in examples/*/; do echo "$(GO) run ./$$d | diff $${d}output.golden -"; \
		out=$$($(GO) run ./$$d) || exit 1; \
		printf '%s\n' "$$out" | diff $${d}output.golden - || exit 1; done
