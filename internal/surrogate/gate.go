package surrogate

import (
	"math/rand"
	"sort"
)

// Config controls which windows train the surrogate. Config is part
// of the tile content address (the same settings must yield the same
// results fleet-wide), so every field is JSON-tagged and
// deterministic.
type Config struct {
	// Seed drives the training-sample choice. Same seed + same window
	// set => bit-identical model and gate decisions.
	Seed int64 `json:"seed"`
	// SampleFrac is the fraction of non-empty windows simulated
	// exactly for training+holdout (default 0.05).
	SampleFrac float64 `json:"sample_frac,omitempty"`
	// MinSample is the floor on the sample size (default 48).
	MinSample int `json:"min_sample,omitempty"`
}

const (
	maxSample = 512 // ceiling on the sample size
	// rounds and learnRate are the boosting hyperparameters.
	rounds    = 64
	learnRate = 0.3
	// maxClean is the hard ceiling on the skip threshold: a window only
	// skips when its predicted hotspot count is below this.
	maxClean = 0.25
	// cleanMargin shrinks the threshold toward the lowest score the
	// model assigned any dirty training window: TClean =
	// min(maxClean, cleanMargin * minDirtyScore).
	cleanMargin = 0.5
)

// SampleIndices picks the deterministic training sample from n
// candidate windows: a seeded permutation prefix, returned sorted
// ascending so downstream iteration order never depends on the
// permutation's internal order.
func SampleIndices(cfg Config, n int) []int {
	if cfg.SampleFrac <= 0 {
		cfg.SampleFrac = 0.05
	}
	if cfg.MinSample <= 0 {
		cfg.MinSample = 48
	}
	k := int(float64(n)*cfg.SampleFrac + 0.5)
	if k < cfg.MinSample {
		k = cfg.MinSample
	}
	if k > maxSample {
		k = maxSample
	}
	if k > n {
		k = n
	}
	idx := rand.New(rand.NewSource(cfg.Seed)).Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// Gate is a trained skip decision: model plus the calibrated
// confidently-clean threshold.
type Gate struct {
	Model  *Model  `json:"model"`
	TClean float64 `json:"t_clean"`
}

// NewGate trains a model on (X, y) — y is the exact hotspot count
// per window — and derives the skip threshold. The threshold starts
// at maxClean and shrinks toward the lowest score the model gives
// any dirty training window, so a model that barely separates clean
// from dirty gets a conservative gate that skips little rather than
// an unsafe one.
func NewGate(X []Features, y []float64) *Gate {
	m := Train(X, y, rounds, learnRate)
	t := maxClean
	minDirty := -1.0
	for i := range X {
		if y[i] > 0 {
			s := m.Predict(X[i])
			if minDirty < 0 || s < minDirty {
				minDirty = s
			}
		}
	}
	if minDirty >= 0 && cleanMargin*minDirty < t {
		t = cleanMargin * minDirty
	}
	return &Gate{Model: m, TClean: t}
}

// Skip reports whether a window may bypass exact simulation: never
// when a deterministic fail-risk guard trips, otherwise only when the
// model scores it confidently clean.
func (g *Gate) Skip(f Features) bool {
	if Guarded(f) {
		return false
	}
	return g.Model.Predict(f) < g.TClean
}
