package dfm

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// Full-chip streaming evaluation: the scale experiment behind the
// paper's "does DFM analysis fit in a real flow?" question. A
// generated SoC floorplan (10^6..10^8 flattened rects) is evaluated
// through the halo-tiled engine with per-cell result reuse, optionally
// differentially against the flatten-everything baseline. This runs
// through `dfmscore -chip`, not the technique scorecard: it measures
// the evaluation infrastructure, not one DFM technique.

// ChipEvalOpts parameterizes EvalChipTiling.
type ChipEvalOpts struct {
	Chip   layout.ChipOpts
	Tiling tiling.Opts
	// CompareFlat also runs the flatten-everything twin and checks the
	// results match exactly. Memory is O(chip): only enable on chips
	// that fit flattened.
	CompareFlat bool
	// Remote fans tile work units across a dfmd fleet instead of
	// computing them in-process: extraction and stitching stay local
	// (tiling.DistEvaluate), so the result is bit-identical to the
	// single-process run. Nil evaluates locally.
	Remote tiling.TileClient
}

// ChipEvalReport is what a full-chip run measures.
type ChipEvalReport struct {
	Info   layout.ChipInfo `json:"info"`
	Stats  tiling.Stats    `json:"stats"`
	ByRule map[string]int  `json:"by_rule"`
	// Violations/Hotspots are summary counts; the full markers stay in
	// memory only while the caller holds the Result.
	Violations int `json:"violations"`
	Hotspots   int `json:"hotspots"`

	// DefectSites/DefectsFound/DefectRecall measure the scan against
	// the generator's injected litho defects: a site counts as found
	// when any reported hotspot on its layer overlaps its box. Recall
	// is 1 when no sites were injected.
	DefectSites  int     `json:"defect_sites,omitempty"`
	DefectsFound int     `json:"defects_found,omitempty"`
	DefectRecall float64 `json:"defect_recall"`

	GenElapsed  time.Duration `json:"gen_elapsed_ns"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	TilesPerSec float64       `json:"tiles_per_sec"`
	// PeakHeapTiled/Flat are sampled peak Go heap during each phase,
	// bytes. PeakHeapFlat is 0 when CompareFlat is off.
	PeakHeapTiled uint64 `json:"peak_heap_tiled"`
	PeakHeapFlat  uint64 `json:"peak_heap_flat"`

	FlatElapsed time.Duration `json:"flat_elapsed_ns,omitempty"`
	// Match reports the differential outcome; true when CompareFlat is
	// off (nothing to mismatch).
	Match bool `json:"match"`
}

// heapPeak samples the live heap while fn runs and returns its peak.
// Each phase starts from a forced GC so phase peaks are comparable.
func heapPeak(fn func() error) (uint64, error) {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		sample := func() uint64 {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			return peak
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	err := fn()
	close(stop)
	return <-done, err
}

// defectRecall checks every injected litho defect site against the
// scan output: found means some hotspot on the site's layer overlaps
// its box. The generator plants these defects so that the scan has
// failures it must find: a recall under 1 is a scan that misses real
// printability failures.
func defectRecall(info layout.ChipInfo, res *tiling.Result) (sites, found int, recall float64) {
	sites = len(info.HotspotSites)
	if sites == 0 {
		return 0, 0, 1
	}
	for _, site := range info.HotspotSites {
		for _, h := range res.Hotspots[site.Layer] {
			if h.Box.Overlaps(site.Box) {
				found++
				break
			}
		}
	}
	return sites, found, float64(found) / float64(sites)
}

// EvalChipTiling generates the floorplan and evaluates it tile-by-tile
// through tiling.Evaluate, measuring throughput and peak heap. With
// CompareFlat it then re-evaluates via the flat baseline and verifies
// the streamed result is bit-identical.
func EvalChipTiling(ctx context.Context, t *tech.Tech, o ChipEvalOpts) (*ChipEvalReport, *tiling.Result, error) {
	genStart := time.Now()
	l, info, err := layout.GenerateChip(t, o.Chip)
	if err != nil {
		return nil, nil, fmt.Errorf("generate chip: %w", err)
	}
	rep := &ChipEvalReport{Info: info, GenElapsed: time.Since(genStart), Match: true}

	var res *tiling.Result
	ex := tiling.NewExtractor(l.Top)
	rep.PeakHeapTiled, err = heapPeak(func() error {
		var err error
		if o.Remote != nil {
			res, err = tiling.DistEvaluate(ctx, t, ex, o.Tiling, o.Remote)
		} else {
			res, err = tiling.Evaluate(ctx, t, ex, o.Tiling)
		}
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("tiled evaluation: %w", err)
	}
	rep.Stats = res.Stats
	rep.ByRule = res.ByRule
	rep.Violations = len(res.Violations)
	for _, hs := range res.Hotspots {
		rep.Hotspots += len(hs)
	}
	rep.Elapsed = res.Stats.Elapsed
	if s := res.Stats.Elapsed.Seconds(); s > 0 {
		rep.TilesPerSec = float64(res.Stats.Tiles) / s
	}
	rep.DefectSites, rep.DefectsFound, rep.DefectRecall = defectRecall(info, res)

	if o.CompareFlat {
		var flat *tiling.Result
		rep.PeakHeapFlat, err = heapPeak(func() error {
			var err error
			flat, err = tiling.EvaluateFlat(ctx, t, l.Top, o.Tiling)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("flat evaluation: %w", err)
		}
		rep.FlatElapsed = flat.Stats.Elapsed
		rep.Match = tiling.Equivalent(res, flat)
	}
	return rep, res, nil
}
