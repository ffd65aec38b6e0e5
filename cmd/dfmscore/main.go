// Command dfmscore runs the full DFM technique scorecard — the
// repository's headline experiment: every technique the DAC'08 panel
// debated, applied to synthetic workloads, measured, and judged
// hit/marginal/hype.
//
// The run goes through the fault-tolerant evaluation harness: the
// techniques execute in a bounded worker pool, each under its own
// wall-clock budget, with panic recovery. Each technique runs once on
// the seed it is reported under. A failing technique degrades to a
// structured per-technique error; the rest of the scorecard still
// reports.
//
// Usage:
//
//	dfmscore [-seed N] [-detail] [-json] [-timeout D] [-metrics FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// -metrics enables the observability registry for the run and writes
// its JSON snapshot (harness, litho, OPC, and per-technique stage
// metrics) to FILE, with "-" meaning stdout. -cpuprofile and
// -memprofile write pprof profiles of the run, in every mode.
//
// Full-chip mode replaces the scorecard with the streaming scale
// experiment — generate an SoC floorplan and evaluate it through the
// halo-tiled engine:
//
//	dfmscore -chip [-chiprects N | -chipslots N] [-chipcache N] [-chipflat]
//	         [-chiphotspots] [-seed N] [-json] [-cluster N]
//
// -chipflat additionally runs the flatten-everything baseline and
// fails (exit 1) unless the streamed result matches it exactly; only
// use it on chips small enough to flatten.
//
// -cluster N starts N in-process dfmd backends behind an in-process
// dfmrouter and fans the chip's tiles across them instead of
// computing in-process (tiling.DistEvaluate): extraction and seam
// stitching stay local, so the distributed result is bit-identical —
// -chipflat verifies the whole chain against the flat baseline.
//
// Exit status is 1 when any technique reports an error, in both
// table and JSON modes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/dfm"
	"repro/internal/fleet"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/tech"
	"repro/internal/tiling"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the deferred profile stop runs on
// every path out.
func run() int {
	seed := flag.Int64("seed", 11, "workload generation seed")
	detail := flag.Bool("detail", false, "print every metric, not just the primary")
	asJSON := flag.Bool("json", false, "emit the scorecard as JSON")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-technique wall-clock budget (0 = none)")
	metrics := flag.String("metrics", "", "write the run's metrics snapshot to this file (\"-\" = stdout)")
	chip := flag.Bool("chip", false, "full-chip mode: generate an SoC floorplan and run the tiled streaming evaluation")
	chipRects := flag.Int64("chiprects", 1_000_000, "chip mode: target flattened rect count (ignored when -chipslots > 0)")
	chipSlots := flag.Int("chipslots", 0, "chip mode: floorplan grid side (overrides -chiprects)")
	chipCache := flag.Int("chipcache", 8192, "chip mode: result cache entries (0 disables reuse)")
	chipFlat := flag.Bool("chipflat", false, "chip mode: also run the flat baseline and verify an exact match")
	chipHot := flag.Bool("chiphotspots", false, "chip mode: include the metal1 litho hotspot scan")
	chipHotDef := flag.Int("chiphotdefects", 0, "chip mode: injected litho defect structures (pinch necks + bridge pad pairs)")
	chipDens := flag.Bool("chipdensity", true, "chip mode: include the density-window deck (its violation list dominates memory on sparse floorplans)")
	cluster := flag.Int("cluster", 0, "chip mode: fan tiles across N in-process dfmd backends behind a dfmrouter")
	repairFlag := flag.Bool("repair", false, "chip mode: run the in-design score-and-repair loop (weighted DFM score, auto-fixes, incremental re-evaluation)")
	repairDef := flag.Int("chiprepairdefects", 4, "repair mode: injected repairable via sites (under-enclosed pads + single cuts)")
	deltaBench := flag.Bool("deltabench", false, "repair mode: time the incremental dirty-region re-evaluation against a from-scratch run of the repaired chip")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfmscore:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "dfmscore:", err)
		}
	}()

	if *metrics != "" {
		obs.SetEnabled(true)
	}

	// Ctrl-C cancels the run; in-flight techniques stop at their next
	// cancellation checkpoint and report as canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	t := tech.N45()
	if *chip {
		if err := runChip(ctx, t, chipConfig{
			seed: *seed, rects: *chipRects, slots: *chipSlots, cache: *chipCache, flat: *chipFlat,
			hotspots: *chipHot, hotDefects: *chipHotDef,
			density: *chipDens, asJSON: *asJSON,
			cluster: *cluster, repair: *repairFlag, repairDefects: *repairDef,
			deltaBench: *deltaBench,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "dfmscore:", err)
			return 1
		}
		if *metrics != "" {
			if err := obs.DumpDefault(*metrics); err != nil {
				fmt.Fprintln(os.Stderr, "dfmscore:", err)
				return 1
			}
		}
		return 0
	}
	if !*asJSON {
		fmt.Printf("DFM scorecard on %s (half-pitch %dnm, k1=%.2f), seed %d\n\n",
			t.Name, t.HalfPitch(), t.K1(), *seed)
	}

	sc := dfm.RunAllConfig(ctx, t, *seed, dfm.Config{
		Parallel: runtime.GOMAXPROCS(0),
		Timeout:  *timeout,
	})

	if *asJSON {
		b, err := sc.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfmscore:", err)
			return 1
		}
		fmt.Println(string(b))
	} else {
		fmt.Println(sc.Table())
		if *detail {
			fmt.Println(sc.Detail())
		}
		hit, marg, hype := sc.Hits()
		fmt.Printf("verdicts: %d hit, %d marginal, %d hype\n", hit, marg, hype)
	}

	if *metrics != "" {
		if err := obs.DumpDefault(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, "dfmscore:", err)
			return 1
		}
	}

	// One exit policy for every output mode: any technique error
	// fails the run.
	for _, o := range sc.Outcomes {
		if o.Err != nil {
			return 1
		}
	}
	return 0
}

// chipConfig carries the -chip flag set.
type chipConfig struct {
	seed  int64
	rects int64
	slots int
	cache int
	flat  bool

	hotspots   bool
	hotDefects int
	density    bool
	asJSON     bool
	cluster    int

	repair        bool
	repairDefects int
	deltaBench    bool
}

// What every chip run uses; each was a flag no command ever passed.
const (
	chipDefects = 8     // injected spacing defects
	chipTile    = 24000 // core tile size, nm
	chipHalo    = 2000  // DRC context halo, nm
	fixRounds   = 2     // repair mode: propose-check-apply-rescore rounds
)

// chipTiling is the engine configuration both chip modes start from.
func chipTiling(cfg chipConfig) tiling.Opts {
	o := tiling.Opts{
		Tile: chipTile, Halo: chipHalo, Workers: runtime.GOMAXPROCS(0),
		DRC: true, Density: cfg.density, DensityWindow: 3000,
	}
	if cfg.hotspots {
		o.Hotspots = []tech.Layer{tech.Metal1}
	}
	return o
}

// runChip executes the full-chip streaming experiment and prints its
// report. A -chipflat mismatch is an error: the tiled engine's whole
// claim is exact equivalence to the flat evaluation.
func runChip(ctx context.Context, t *tech.Tech, cfg chipConfig) error {
	if cfg.repair || cfg.deltaBench {
		return runRepair(ctx, t, cfg)
	}
	topts := chipTiling(cfg)
	if cfg.cache > 0 {
		topts.Cache = tiling.NewCache(cfg.cache)
	}
	o := dfm.ChipEvalOpts{
		Chip: layout.ChipOpts{
			Seed: cfg.seed, Slots: cfg.slots, TargetRects: cfg.rects,
			Defects: chipDefects, HotspotDefects: cfg.hotDefects,
		},
		Tiling:      topts,
		CompareFlat: cfg.flat,
	}
	var cl *fleet.Cluster
	if cfg.cluster > 0 {
		var err error
		cl, err = fleet.Start(fleet.Options{
			Nodes: cfg.cluster,
			Logf:  func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
		})
		if err != nil {
			return err
		}
		defer cl.Stop()
		if err := cl.WaitReady(10 * time.Second); err != nil {
			return err
		}
		o.Remote = &client.TileSubmitter{
			C:      client.New(cl.URL, nil),
			Policy: client.NewRetryPolicy(4, cfg.seed),
		}
		if !cfg.asJSON {
			fmt.Printf("distributing tiles across %d dfmd backends at %s\n", cfg.cluster, cl.URL)
		}
	}
	rep, _, err := dfm.EvalChipTiling(ctx, t, o)
	if err != nil {
		return err
	}

	if cfg.asJSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		st := rep.Stats
		fmt.Printf("full-chip streaming evaluation on %s, seed %d\n", t.Name, cfg.seed)
		fmt.Printf("  chip:      %dx%d slots, die %.1fx%.1f mm, %d rects (generated in %v)\n",
			rep.Info.Slots, rep.Info.Slots,
			float64(rep.Info.Die.Width())/1e6, float64(rep.Info.Die.Height())/1e6,
			rep.Info.Rects, rep.GenElapsed.Round(time.Millisecond))
		fmt.Printf("  tiles:     %d (%d empty), tile %dnm halo %dnm, %.1f tiles/s, %v total\n",
			st.Tiles, st.EmptyTiles, chipTile, chipHalo, rep.TilesPerSec,
			rep.Elapsed.Round(time.Millisecond))
		if st.TileHits+st.TileMisses > 0 {
			fmt.Printf("  reuse:     %d/%d tile hits (%.0f%%), %d window hits\n",
				st.TileHits, st.TileHits+st.TileMisses,
				100*float64(st.TileHits)/float64(st.TileHits+st.TileMisses),
				st.WindowHits)
		}
		if st.RemoteTiles+st.RemoteWindows > 0 {
			fmt.Printf("  fleet:     %d tiles + %d windows evaluated remotely, %d served cached + %d deduped fleet-side\n",
				st.RemoteTiles, st.RemoteWindows, st.RemoteCached, st.RemoteDeduped)
		}
		fmt.Printf("  results:   %d violations, %d hotspots\n", rep.Violations, rep.Hotspots)
		if rep.DefectSites > 0 {
			fmt.Printf("  defects:   %d/%d injected litho defects found (recall %.2f)\n",
				rep.DefectsFound, rep.DefectSites, rep.DefectRecall)
		}
		// MB is 1e6 bytes, as the benchmark's peak_heap_mb.
		fmt.Printf("  peak heap: %.1f MB tiled", float64(rep.PeakHeapTiled)/1e6)
		if cfg.flat {
			fmt.Printf(", %.1f MB flat (%.1fx); flat run %v",
				float64(rep.PeakHeapFlat)/1e6,
				float64(rep.PeakHeapFlat)/float64(rep.PeakHeapTiled),
				rep.FlatElapsed.Round(time.Millisecond))
		}
		fmt.Println()
	}
	if cfg.flat && !rep.Match {
		return fmt.Errorf("tiled result does NOT match flat baseline")
	}
	return nil
}

// repairReport is the -repair JSON payload.
type repairReport struct {
	ScoreBefore float64             `json:"scoreBefore"`
	ScoreAfter  float64             `json:"scoreAfter"`
	Applied     map[string]int      `json:"applied"`
	Rejected    int                 `json:"rejected"`
	Skipped     map[string]int      `json:"skipped,omitempty"`
	Rounds      []repair.RoundStats `json:"rounds"`
	Elapsed     time.Duration       `json:"elapsedNs"`
	Bench       *deltaBenchReport   `json:"deltaBench,omitempty"`
}

// deltaBenchReport times the incremental re-evaluation of the repair
// loop's merged dirty region against a from-scratch run of the
// repaired chip.
type deltaBenchReport struct {
	Incremental time.Duration `json:"incrementalNs"`
	Full        time.Duration `json:"fullNs"`
	Speedup     float64       `json:"speedup"`
	Match       bool          `json:"match"`
}

// runRepair executes the in-design score-and-repair loop on a
// generated chip: weighted scoring, legality-checked auto-fixes, and
// incremental dirty-region re-scoring between rounds.
func runRepair(ctx context.Context, t *tech.Tech, cfg chipConfig) error {
	if cfg.cluster > 0 {
		return fmt.Errorf("-repair runs in-process (in-design loop); drop -cluster")
	}
	topts := chipTiling(cfg)
	l, info, err := layout.GenerateChip(t, layout.ChipOpts{
		Seed: cfg.seed, Slots: cfg.slots, TargetRects: cfg.rects,
		Defects: chipDefects, HotspotDefects: cfg.hotDefects,
		RepairDefects: cfg.repairDefects,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	out, err := repair.Run(ctx, t, l.Top, repair.Opts{Eval: topts, Rounds: fixRounds})
	if err != nil {
		return err
	}
	rep := repairReport{
		ScoreBefore: out.Before.Total, ScoreAfter: out.After.Total,
		Applied: out.AppliedByKind(), Rejected: len(out.Rejected), Skipped: out.Skipped,
		Rounds: out.Rounds, Elapsed: time.Since(start),
	}

	if cfg.deltaBench {
		b, err := benchDelta(ctx, t, l.Top, out, topts)
		if err != nil {
			return err
		}
		rep.Bench = b
	}

	if cfg.asJSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("in-design score-and-repair on %s, seed %d\n", t.Name, cfg.seed)
		fmt.Printf("  chip:    %dx%d slots, %d rects, %d spacing defects, %d repair sites\n",
			info.Slots, info.Slots, info.Rects, len(info.DefectBoxes), len(info.RepairSites))
		fmt.Printf("  score:   %.1f -> %.1f weighted DFM cost\n", out.Before.Total, out.After.Total)
		fmt.Printf("  fixes:   %v applied, %d rejected (all legality-checked), skipped %v\n",
			rep.Applied, rep.Rejected, rep.Skipped)
		for i, r := range out.Rounds {
			if r.Proposed == 0 {
				fmt.Printf("  round %d: converged, nothing left to propose\n", i+1)
				continue
			}
			fmt.Printf("  round %d: %d proposed, %d applied, %d rejected, %d tiles spliced, score %.1f\n",
				i+1, r.Proposed, r.Applied, r.Rejected, r.SplicedTiles, r.Score)
		}
		fmt.Printf("  elapsed: %v\n", rep.Elapsed.Round(time.Millisecond))
		if rep.Bench != nil {
			fmt.Printf("  delta:   incremental %v vs full %v (%.1fx), results identical: %v\n",
				rep.Bench.Incremental.Round(time.Millisecond), rep.Bench.Full.Round(time.Millisecond),
				rep.Bench.Speedup, rep.Bench.Match)
		}
	}
	if rep.Bench != nil && !rep.Bench.Match {
		return fmt.Errorf("incremental re-evaluation does NOT match the from-scratch run")
	}
	return nil
}

// benchDelta replays the repair loop's merged edits as one delta
// against a fresh snapshot of the original chip and times it against a
// from-scratch evaluation of the repaired chip — both uncached, both
// verified equivalent.
func benchDelta(ctx context.Context, t *tech.Tech, orig *layout.Cell, out *repair.Outcome, topts tiling.Opts) (*deltaBenchReport, error) {
	var dirty repair.Delta
	for _, f := range out.Applied {
		dirty.Merge(f.Delta)
	}
	_, snap, err := tiling.EvaluateSnap(ctx, t, tiling.NewExtractor(orig), topts)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	incRes, _, err := tiling.EvaluateDelta(ctx, t, tiling.NewExtractor(out.Top), snap, dirty.Rects())
	if err != nil {
		return nil, err
	}
	incremental := time.Since(t0)
	t1 := time.Now()
	fullRes, err := tiling.EvaluateChip(ctx, t, out.Top, topts)
	if err != nil {
		return nil, err
	}
	full := time.Since(t1)
	return &deltaBenchReport{
		Incremental: incremental, Full: full,
		Speedup: float64(full) / float64(incremental),
		Match:   tiling.Equivalent(incRes, fullRes),
	}, nil
}
