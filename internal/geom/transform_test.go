package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrientApply(t *testing.T) {
	p := Pt(3, 1)
	cases := []struct {
		o    Orient
		want Point
	}{
		{R0, Pt(3, 1)},
		{R90, Pt(-1, 3)},
		{R180, Pt(-3, -1)},
		{R270, Pt(1, -3)},
		{MX, Pt(3, -1)},
		{MY, Pt(-3, 1)},
		{MX90, Pt(1, 3)},
		{MY90, Pt(-1, -3)},
	}
	for _, c := range cases {
		if got := c.o.apply(p); got != c.want {
			t.Errorf("%v.apply(%v) = %v, want %v", c.o, p, got, c.want)
		}
	}
}

func TestTransformApplyRect(t *testing.T) {
	tr := Transform{Orient: R90, Offset: Pt(100, 0)}
	r := R(0, 0, 10, 4)
	got := tr.ApplyRect(r)
	// R90 maps (0,0)->(0,0), (10,4)->(-4,10); then translate by (100,0).
	if got != R(96, 0, 100, 10) {
		t.Errorf("ApplyRect = %v", got)
	}
	if got.Area() != r.Area() {
		t.Errorf("transform changed area")
	}
}

func TestComposeMatchesSequentialApply(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		t1 := Transform{Orient: Orient(rnd.Intn(8)), Offset: Pt(rnd.Int63n(100)-50, rnd.Int63n(100)-50)}
		t2 := Transform{Orient: Orient(rnd.Intn(8)), Offset: Pt(rnd.Int63n(100)-50, rnd.Int63n(100)-50)}
		p := Pt(rnd.Int63n(100)-50, rnd.Int63n(100)-50)
		return t1.Compose(t2).Apply(p) == t1.Apply(t2.Apply(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIdentityAndTranslate(t *testing.T) {
	p := Pt(7, -3)
	if Identity.Apply(p) != p {
		t.Errorf("Identity is not identity")
	}
	if Translate(10, 20).Apply(p) != Pt(17, 17) {
		t.Errorf("Translate wrong")
	}
}

func TestOrientStrings(t *testing.T) {
	names := map[Orient]string{
		R0: "R0", R90: "R90", R180: "R180", R270: "R270",
		MX: "MX", MX90: "MX90", MY: "MY", MY90: "MY90",
	}
	for o, want := range names {
		if got := o.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", o, got, want)
		}
	}
}

func TestTransformPreservesAreaQuick(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		tr := Transform{Orient: Orient(rnd.Intn(8)), Offset: Pt(rnd.Int63n(100)-50, rnd.Int63n(100)-50)}
		r := randRect(rnd)
		m := tr.ApplyRect(r)
		return m.Area() == r.Area() && m.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
