package surrogate

import "math"

// Report is the calibration record for one gated scan: how the model
// measured against exact ground truth on held-out windows, plus the
// gating outcome. It lands in dfm chip reports and the EXPERIMENTS.md
// hit-or-hype table.
type Report struct {
	// Window accounting.
	Windows  int `json:"windows"`   // scan windows total
	NonEmpty int `json:"non_empty"` // windows with any drawn geometry
	Sampled  int `json:"sampled"`   // exactly simulated for training+holdout
	Holdout  int `json:"holdout"`   // of Sampled, reserved for calibration

	// Ground-truth composition of the exact sample.
	TrainDirty   int `json:"train_dirty"`
	HoldoutDirty int `json:"holdout_dirty"`

	// Gate parameters and outcome over the unsampled remainder.
	TClean   float64 `json:"t_clean"`
	Skipped  int     `json:"skipped"`
	Guarded  int     `json:"guarded"` // forced exact by fail-risk guards
	Exact    int     `json:"exact"`   // fell through to exact simulation
	SkipRate float64 `json:"skip_rate"`

	// Holdout accuracy: regression error on hotspot counts and
	// binary dirty-window detection quality at the gate threshold.
	MAPE      float64 `json:"mape"`
	Pearson   float64 `json:"pearson"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

// Calibrate scores a gate against held-out (X, y) exact results.
// MAPE uses max(1, y) in the denominator so clean windows (y = 0)
// contribute absolute error instead of dividing by zero. Pearson is
// 0 when either side has zero variance. Precision/recall treat
// "predicted dirty" as score >= TClean or guard tripped — i.e. the
// windows the gate would send to the exact engine — and are vacuously
// 1 when undefined.
func Calibrate(g *Gate, X []Features, y []float64) (mape, pearson, precision, recall float64) {
	n := len(X)
	if n == 0 {
		return 0, 0, 1, 1
	}
	preds := make([]float64, n)
	var sumAPE float64
	for i := range X {
		preds[i] = g.Model.Predict(X[i])
		sumAPE += math.Abs(preds[i]-y[i]) / math.Max(1, y[i])
	}
	mape = sumAPE / float64(n)
	pearson = pearsonR(preds, y)

	var tp, fp, fn float64
	for i := range X {
		predDirty := Guarded(X[i]) || preds[i] >= g.TClean
		dirty := y[i] > 0
		switch {
		case predDirty && dirty:
			tp++
		case predDirty && !dirty:
			fp++
		case !predDirty && dirty:
			fn++
		}
	}
	precision, recall = 1, 1
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	return mape, pearson, precision, recall
}

// pearsonR is the sample correlation coefficient, 0 when either
// series is constant.
func pearsonR(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
