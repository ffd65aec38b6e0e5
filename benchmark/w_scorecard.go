package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/dfm"
	"repro/internal/tech"
)

// scorecard is the paper's own deliverable: every DFM technique
// evaluated and judged, over consecutive workload seeds.
type scorecard struct {
	cfg   config
	t     *tech.Tech
	cards []*dfm.Scorecard
}

func (w *scorecard) setup(ctx context.Context) error {
	w.t = tech.N45()
	return nil
}

func (w *scorecard) describe() string {
	return fmt.Sprintf("%d techniques x %d seeds from %d", len(dfm.Techniques()), w.cfg.sizes.cardSeeds, w.cfg.seed)
}

func (w *scorecard) seeds() []int64 {
	var s []int64
	for i := 0; i < w.cfg.sizes.cardSeeds; i++ {
		s = append(s, w.cfg.seed+int64(i))
	}
	return s
}

func (w *scorecard) pass(ctx context.Context, m *meter) (passOut, error) {
	cfg := dfm.DefaultConfig()
	cfg.Parallel = w.cfg.workers
	w.cards = w.cards[:0]
	err := m.measure(func() error {
		for _, seed := range w.seeds() {
			w.cards = append(w.cards, dfm.RunAllConfig(ctx, w.t, seed, cfg))
		}
		return nil
	})
	units := len(w.cards) * len(dfm.Techniques())
	if err != nil {
		return passOut{units: units}, err
	}
	var hit, marginal, hype int
	for _, sc := range w.cards {
		h, m, y := sc.Hits()
		hit, marginal, hype = hit+h, marginal+m, hype+y
	}
	return passOut{
		digest: cardDigest(w.cards), units: units,
		note: fmt.Sprintf("%d hit, %d marginal, %d hype", hit, marginal, hype),
	}, nil
}

// cardDigest hashes every verdict and every measured before/after
// value, and nothing that depends on the clock.
func cardDigest(cards []*dfm.Scorecard) string {
	h := sha256.New()
	for _, sc := range cards {
		for _, o := range sc.Outcomes {
			fmt.Fprintf(h, "%s %v %x;", o.Technique, o.Verdict, math.Float64bits(o.CostFrac))
			for _, m := range o.Metrics {
				fmt.Fprintf(h, "%s %x %x;", m.Name, math.Float64bits(m.Before), math.Float64bits(m.After))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// verify requires every technique of every seed to have been evaluated
// without error.
func (w *scorecard) verify(ctx context.Context) ([]check, error) {
	var cs []check
	for i, sc := range w.cards {
		for _, o := range sc.Outcomes {
			cs = append(cs, check{fmt.Sprintf("seed %d %s evaluated without error", w.seeds()[i], o.Technique), o.Err == nil})
		}
	}
	return cs, nil
}

func (w *scorecard) layers(ctx context.Context, lm layerMetrics) error {
	tr := w.cfg.tr
	if err := w.setup(ctx); err != nil {
		return err
	}
	before := counters()
	var hits int
	for _, seed := range w.seeds() {
		for _, name := range dfm.Techniques() {
			task, err := dfm.TechniqueTask(w.t, name, seed, dfm.DefaultBlock())
			if err != nil {
				return err
			}
			var v any
			tr.in("dfm.technique."+name, rootSpan, func(int) { v, err = task.Run(ctx, 0) })
			if err != nil {
				return fmt.Errorf("seed %d %s: %w", seed, name, err)
			}
			if o, ok := v.(dfm.Outcome); ok && o.Verdict == dfm.Hit {
				hits++
			}
		}
	}
	counterMetrics(before, lm)
	for _, name := range dfm.Techniques() {
		lm["dfm.technique_s."+name] = sumByName(tr.spans, nil, "dfm.technique."+name)
	}
	lm["dfm.verdict_hits"] = float64(hits)
	return nil
}
