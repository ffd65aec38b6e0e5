package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestVthRollOff(t *testing.T) {
	m := NMOS45()
	// Vth falls as L shrinks.
	if !(m.Vth(30) < m.Vth(45) && m.Vth(45) < m.Vth(100)) {
		t.Fatalf("Vth roll-off wrong: %v %v %v", m.Vth(30), m.Vth(45), m.Vth(100))
	}
	// Long channel approaches Vth0.
	if math.Abs(m.Vth(500)-m.Vth0) > 1e-6 {
		t.Fatalf("long-channel Vth = %v", m.Vth(500))
	}
}

func TestIOnBehaviour(t *testing.T) {
	m := NMOS45()
	nom := m.IOn(300, 45)
	if nom <= 0 {
		t.Fatal("no drive at nominal")
	}
	// Wider is stronger, linear in W.
	if r := m.IOn(600, 45) / nom; math.Abs(r-2) > 1e-9 {
		t.Fatalf("W scaling = %v", r)
	}
	// Shorter channel drives more (W/L and overdrive both help).
	if m.IOn(300, 40) <= nom {
		t.Fatal("shorter channel should drive more")
	}
	// Degenerate inputs.
	if m.IOn(0, 45) != 0 || m.IOn(300, 0) != 0 {
		t.Fatal("degenerate IOn not zero")
	}
}

func TestLeakageExponentialInL(t *testing.T) {
	m := NMOS45()
	l45 := m.ILeak(300, 45)
	l40 := m.ILeak(300, 40)
	l35 := m.ILeak(300, 35)
	if !(l35 > l40 && l40 > l45) {
		t.Fatalf("leakage not increasing as L shrinks: %v %v %v", l45, l40, l35)
	}
	// Exponential: the 40->35 ratio exceeds the 45->40 ratio.
	if l35/l40 <= l40/l45 {
		t.Fatalf("leakage not super-linear: %v vs %v", l35/l40, l40/l45)
	}
	// 5nm shrink should cost well over 2x leakage at these settings.
	if l40/l45 < 1.5 {
		t.Fatalf("leakage sensitivity too weak: %v", l40/l45)
	}
}

func TestSliceAggregation(t *testing.T) {
	m := NMOS45()
	uniform := []Slice{{W: 100, L: 45}, {W: 100, L: 45}, {W: 100, L: 45}}
	if got, want := m.SliceIOn(uniform), m.IOn(300, 45); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("uniform slices = %v, want %v", got, want)
	}
	if got := TotalW(uniform); got != 300 {
		t.Fatalf("TotalW = %v", got)
	}
}

func TestEquivalentLUniform(t *testing.T) {
	m := NMOS45()
	uniform := []Slice{{W: 150, L: 45}, {W: 150, L: 45}}
	for _, leak := range []bool{false, true} {
		if got := m.EquivalentL(uniform, leak); math.Abs(got-45) > 0.1 {
			t.Fatalf("uniform EquivalentL(leak=%v) = %v, want 45", leak, got)
		}
	}
}

func TestEquivalentLSplitsDelayAndLeakage(t *testing.T) {
	// The Poppe result: for a necked gate, L_eq for leakage is shorter
	// than L_eq for delay, because leakage is exponentially dominated
	// by the shortest slice.
	m := NMOS45()
	necked := []Slice{{W: 250, L: 46}, {W: 50, L: 38}}
	lDelay := m.EquivalentL(necked, false)
	lLeak := m.EquivalentL(necked, true)
	if !(lLeak < lDelay) {
		t.Fatalf("expected L_leak < L_delay, got leak=%v delay=%v", lLeak, lDelay)
	}
	if lDelay < 38 || lDelay > 46 {
		t.Fatalf("L_delay out of slice range: %v", lDelay)
	}
}

func TestQuickEquivalentLMatchesCurrent(t *testing.T) {
	m := NMOS45()
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 2 + rnd.Intn(5)
		slices := make([]Slice, n)
		for i := range slices {
			slices[i] = Slice{W: 20 + rnd.Float64()*100, L: 38 + rnd.Float64()*15}
		}
		leq := m.EquivalentL(slices, false)
		got := m.IOn(TotalW(slices), leq)
		want := m.SliceIOn(slices)
		return math.Abs(got-want) < want*1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExtractSlicesRectangularGate(t *testing.T) {
	// A plain 45x300 vertical gate: every slice has L=45.
	gate := []geom.Rect{geom.R(0, 0, 45, 300)}
	slices := ExtractSlices(gate, true, 10)
	if len(slices) != 30 {
		t.Fatalf("slice count = %d", len(slices))
	}
	for _, s := range slices {
		if math.Abs(s.L-45) > 1e-9 || math.Abs(s.W-10) > 1e-9 {
			t.Fatalf("bad slice %+v", s)
		}
	}
	if got := TotalW(slices); math.Abs(got-300) > 1e-9 {
		t.Fatalf("total width = %v", got)
	}
}

func TestExtractSlicesNeckedGate(t *testing.T) {
	// Gate with a 10nm-long necked strip in the middle.
	gate := []geom.Rect{
		geom.R(0, 0, 45, 100),
		geom.R(5, 100, 40, 200), // 35nm long here
		geom.R(0, 200, 45, 300),
	}
	slices := ExtractSlices(gate, true, 10)
	var sawNarrow bool
	for _, s := range slices {
		if s.L < 40 {
			sawNarrow = true
		}
	}
	if !sawNarrow {
		t.Fatalf("narrow region not reflected in slices: %+v", slices)
	}
	// Leakage of the necked gate exceeds the rectangular gate's.
	m := NMOS45()
	rect := ExtractSlices([]geom.Rect{geom.R(0, 0, 45, 300)}, true, 10)
	if m.SliceILeak(slices) <= m.SliceILeak(rect) {
		t.Fatalf("necked gate should leak more")
	}
}

func TestExtractSlicesHorizontal(t *testing.T) {
	gate := []geom.Rect{geom.R(0, 0, 300, 45)}
	slices := ExtractSlices(gate, false, 10)
	if got := TotalW(slices); math.Abs(got-300) > 1e-9 {
		t.Fatalf("horizontal total width = %v", got)
	}
	if len(ExtractSlices(nil, false, 10)) != 0 {
		t.Fatalf("empty gate should have no slices")
	}
}
