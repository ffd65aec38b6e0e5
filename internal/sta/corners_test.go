package sta

import (
	"testing"

	"repro/internal/circuit"
)

func TestTypeLengths(t *testing.T) {
	nl := circuit.RandomLogic(6, 6, 8, 2)
	dl := map[circuit.GateType]float64{circuit.Inv: 48, circuit.Nand2: 47}
	lens := TypeLengths(nl, dl, dl)
	for _, g := range nl.Gates {
		want := 0.0
		if v, ok := dl[g.Type]; ok {
			want = v
		}
		if lens.Delay[g.ID] != want {
			t.Fatalf("gate %d (%v): delay L = %v, want %v", g.ID, g.Type, lens.Delay[g.ID], want)
		}
	}
}
