package surrogate

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// synthWindows builds a deterministic feature/label population: mostly
// clean sparse windows, some dense ones, and a few with narrow shapes
// labeled dirty.
func synthWindows(seed int64, n int) ([]Features, []float64) {
	rnd := rand.New(rand.NewSource(seed))
	win := geom.R(0, 0, 12000, 12000)
	X := make([]Features, n)
	y := make([]float64, n)
	for i := range X {
		var rs []geom.Rect
		nr := 4 + rnd.Intn(40)
		narrow := i%7 == 0
		for j := 0; j < nr; j++ {
			x0 := int64(rnd.Intn(11000))
			y0 := int64(rnd.Intn(11000))
			w := int64(90 + rnd.Intn(400))
			if narrow && j == 0 {
				w = 30
			}
			rs = append(rs, geom.R(x0, y0, x0+w, y0+int64(100+rnd.Intn(800))))
		}
		X[i] = WindowFeatures(win, 1000, rs, nil, 42, 42)
		if narrow {
			y[i] = float64(1 + rnd.Intn(3))
		}
	}
	return X, y
}

// TestTrainDeterministic pins the seed-determinism satellite: training
// twice on the same inputs yields bit-identical weights and
// predictions.
func TestTrainDeterministic(t *testing.T) {
	X, y := synthWindows(3, 300)
	m1 := Train(X, y, rounds, learnRate)
	m2 := Train(X, y, rounds, learnRate)
	b1, err := json.Marshal(m1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(m2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("same training set produced different models:\n%s\nvs\n%s", b1, b2)
	}
	if len(m1.Stumps) == 0 {
		t.Fatalf("model learned nothing from a separable population")
	}
	for i := range X {
		if p1, p2 := m1.Predict(X[i]), m2.Predict(X[i]); p1 != p2 {
			t.Fatalf("window %d: predictions differ, %v vs %v", i, p1, p2)
		}
	}
}

// TestTrainSeparates checks the model actually ranks dirty windows
// above clean ones on its own training set.
func TestTrainSeparates(t *testing.T) {
	X, y := synthWindows(4, 400)
	m := Train(X, y, rounds, learnRate)
	var cleanSum, dirtySum float64
	var nc, nd int
	for i := range X {
		if y[i] > 0 {
			dirtySum += m.Predict(X[i])
			nd++
		} else {
			cleanSum += m.Predict(X[i])
			nc++
		}
	}
	if nc == 0 || nd == 0 {
		t.Fatalf("degenerate population: %d clean, %d dirty", nc, nd)
	}
	if dirtySum/float64(nd) <= cleanSum/float64(nc) {
		t.Fatalf("mean dirty score %.3f not above mean clean score %.3f",
			dirtySum/float64(nd), cleanSum/float64(nc))
	}
}

// TestFeaturesOrderInvariant: the feature vector must not depend on
// rect order — the flat and tiled engines extract in different orders
// and must gate identically.
func TestFeaturesOrderInvariant(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	win := geom.R(0, 0, 12000, 12000)
	var rs, nb []geom.Rect
	for j := 0; j < 60; j++ {
		x0, y0 := int64(rnd.Intn(12000))-500, int64(rnd.Intn(12000))-500
		rs = append(rs, geom.R(x0, y0, x0+int64(40+rnd.Intn(500)), y0+int64(40+rnd.Intn(500))))
		nb = append(nb, geom.R(y0, x0, y0+300, x0+300))
	}
	f1 := WindowFeatures(win, 1000, rs, nb, 42, 42)
	rp := make([]geom.Rect, len(rs))
	np := make([]geom.Rect, len(nb))
	for i, j := range rnd.Perm(len(rs)) {
		rp[i] = rs[j]
	}
	for i, j := range rnd.Perm(len(nb)) {
		np[i] = nb[j]
	}
	f2 := WindowFeatures(win, 1000, rp, np, 42, 42)
	if f1 != f2 {
		t.Fatalf("permuted rects changed features:\n%v\nvs\n%v", f1, f2)
	}
}

// TestGuarded: sub-fail drawn width and near-fail drawn gaps must trip
// the deterministic guards; comfortably legal geometry must not.
func TestGuarded(t *testing.T) {
	win := geom.R(0, 0, 12000, 12000)
	legal := []geom.Rect{geom.R(0, 0, 1000, 90), geom.R(0, 300, 1000, 390)}
	if f := WindowFeatures(win, 1000, legal, nil, 42, 42); Guarded(f) {
		t.Fatalf("legal geometry tripped a guard: %v", f)
	}
	neck := append(legal, geom.R(2000, 0, 2200, 30)) // 30nm drawn width < 42
	if f := WindowFeatures(win, 1000, neck, nil, 42, 42); !Guarded(f) {
		t.Fatalf("30nm drawn width did not trip the pinch guard: %v", f)
	}
	// 50nm gap < 1.5*42 = 63.
	gap := []geom.Rect{geom.R(0, 0, 1000, 700), geom.R(0, 750, 1000, 1450)}
	if f := WindowFeatures(win, 1000, gap, nil, 42, 42); !Guarded(f) {
		t.Fatalf("50nm drawn gap did not trip the bridge guard: %v", f)
	}
	// A legal 70nm gap must not.
	gap70 := []geom.Rect{geom.R(0, 0, 1000, 700), geom.R(0, 770, 1000, 1470)}
	if f := WindowFeatures(win, 1000, gap70, nil, 42, 42); Guarded(f) {
		t.Fatalf("legal 70nm gap tripped the bridge guard: %v", f)
	}
}

// TestSampleIndicesDeterministic pins sampling: same seed, same n ->
// same sorted index set; different seed -> (almost surely) different.
func TestSampleIndicesDeterministic(t *testing.T) {
	cfg := Config{Seed: 7}
	a := SampleIndices(cfg, 2000)
	b := SampleIndices(cfg, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different samples")
	}
	if !sortedAscending(a) {
		t.Fatalf("sample indices not sorted: %v", a)
	}
	c := SampleIndices(Config{Seed: 8}, 2000)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical samples")
	}
	// Clamps: small populations sample everything.
	if got := SampleIndices(cfg, 10); len(got) != 10 {
		t.Fatalf("n=10 sampled %d windows", len(got))
	}
	// maxSample caps huge populations.
	if got := SampleIndices(cfg, 100000); len(got) != maxSample {
		t.Fatalf("n=100000 sampled %d windows, want maxSample", len(got))
	}
}

func sortedAscending(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

// TestGateNeverSkipsGuarded: regardless of model quality, a guarded
// window must fall through to exact.
func TestGateNeverSkipsGuarded(t *testing.T) {
	X, y := synthWindows(5, 300)
	g := NewGate(X, y)
	win := geom.R(0, 0, 12000, 12000)
	f := WindowFeatures(win, 1000, []geom.Rect{geom.R(0, 0, 200, 30)}, nil, 42, 42)
	if !Guarded(f) {
		t.Fatalf("probe feature vector is not guarded: %v", f)
	}
	if g.Skip(f) {
		t.Fatalf("gate skipped a guarded window")
	}
}

// TestGateThresholdShrinks: with dirty training windows scored low,
// the threshold must shrink below maxClean.
func TestGateThresholdShrinks(t *testing.T) {
	X, y := synthWindows(6, 300)
	g := NewGate(X, y)
	if g.TClean > maxClean {
		t.Fatalf("TClean %.3f above maxClean %.3f", g.TClean, maxClean)
	}
	// All-clean training set: threshold stays at the ceiling.
	clean := make([]float64, len(y))
	g2 := NewGate(X, clean)
	if g2.TClean != maxClean {
		t.Fatalf("all-clean TClean %.3f, want maxClean %.3f", g2.TClean, maxClean)
	}
}

// TestCalibrate pins the harness math on a hand-checkable gate.
func TestCalibrate(t *testing.T) {
	g := &Gate{Model: &Model{Base: 0}, TClean: 0.5}
	// Model with one stump on FRects: >= 10 rects scores 1, else 0.
	g.Model.LearnRate = 1
	g.Model.Stumps = []Stump{{Feature: FRects, Threshold: 10, Left: 0, Right: 1}}
	var X []Features
	var y []float64
	add := func(rects, label float64) {
		var f Features
		f[FRects] = rects
		f[FMinDim] = 168 // clamp default, no guard
		f[FMinGap] = 168
		X = append(X, f)
		y = append(y, label)
	}
	add(20, 1) // predicted dirty, dirty: TP
	add(20, 0) // predicted dirty, clean: FP
	add(5, 1)  // predicted clean, dirty: FN
	add(5, 0)  // predicted clean, clean: TN
	mape, pearson, prec, rec := Calibrate(g, X, y)
	if prec != 0.5 || rec != 0.5 {
		t.Fatalf("precision %.2f recall %.2f, want 0.50 0.50", prec, rec)
	}
	// Errors: |1-1|/1, |1-0|/1, |0-1|/1, |0-0|/1 -> mean 0.5.
	if math.Abs(mape-0.5) > 1e-12 {
		t.Fatalf("MAPE %.3f, want 0.500", mape)
	}
	// This confusion matrix is symmetric: correlation is exactly zero.
	if pearson != 0 {
		t.Fatalf("Pearson %.3f for a symmetric confusion matrix, want 0", pearson)
	}
	// A perfectly correlated holdout: Pearson 1.
	var X2 []Features
	var y2 []float64
	add2 := func(rects, label float64) {
		var f Features
		f[FRects] = rects
		f[FMinDim] = 168
		f[FMinGap] = 168
		X2 = append(X2, f)
		y2 = append(y2, label)
	}
	add2(20, 1)
	add2(20, 1)
	add2(5, 0)
	if _, r, _, _ := Calibrate(g, X2, y2); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson %.3f for a perfect predictor, want 1", r)
	}
	// Empty holdout: vacuous precision/recall.
	_, _, p0, r0 := Calibrate(g, nil, nil)
	if p0 != 1 || r0 != 1 {
		t.Fatalf("empty holdout precision %.2f recall %.2f, want 1 1", p0, r0)
	}
}

// TestConfigRoundTrip: the gating config is part of the content
// address and must survive JSON exactly.
func TestConfigRoundTrip(t *testing.T) {
	cfg := Config{Seed: 42, SampleFrac: 0.1, MinSample: 16}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("config round trip changed: %+v vs %+v", got, cfg)
	}
}
