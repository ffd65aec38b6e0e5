package circuit

import (
	"fmt"
	"testing"
)

// validate checks structural sanity: IDs match indices, fanin counts
// match types, fanin references point backwards (acyclic by
// construction), and POs are valid.
func (n *Netlist) validate() error {
	for i, g := range n.Gates {
		if g.ID != i {
			return fmt.Errorf("circuit: gate %d has ID %d", i, g.ID)
		}
		if got, want := len(g.Fanin), g.Type.Fanin(); got != want {
			return fmt.Errorf("circuit: gate %d (%v) has %d fanins, want %d", i, g.Type, got, want)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= i {
				return fmt.Errorf("circuit: gate %d fanin %d out of order", i, f)
			}
		}
	}
	for _, po := range n.POs {
		if po < 0 || po >= len(n.Gates) {
			return fmt.Errorf("circuit: PO %d out of range", po)
		}
	}
	return nil
}

func TestGateTypeBasics(t *testing.T) {
	if Input.Fanin() != 0 || Inv.Fanin() != 1 || Nand2.Fanin() != 2 || Nor2.Fanin() != 2 || Buf.Fanin() != 1 {
		t.Fatal("fanin table wrong")
	}
	if Inv.CellName() != "INVX1" || Nand2.CellName() != "NAND2X1" || Input.CellName() != "" {
		t.Fatal("cell mapping wrong")
	}
	if Inv.String() != "inv" {
		t.Fatalf("String = %q", Inv.String())
	}
}

func TestChain(t *testing.T) {
	nl := Chain(5)
	if err := nl.validate(); err != nil {
		t.Fatal(err)
	}
	if len(nl.Gates) != 6 {
		t.Fatalf("gate count = %d", len(nl.Gates))
	}
	if len(nl.POs) != 1 || nl.POs[0] != 5 {
		t.Fatalf("POs = %v", nl.POs)
	}
	fo := nl.Fanouts()
	for i := 0; i < 5; i++ {
		if len(fo[i]) != 1 || fo[i][0] != i+1 {
			t.Fatalf("fanout[%d] = %v", i, fo[i])
		}
	}
}

func TestRandomLogicValid(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		nl := RandomLogic(8, 10, 12, seed)
		if err := nl.validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(nl.POs) == 0 {
			t.Fatalf("seed %d: no POs", seed)
		}
		inputs := 0
		for _, g := range nl.Gates {
			if g.Type == Input {
				inputs++
			}
		}
		if inputs != 8 {
			t.Fatalf("seed %d: inputs = %d", seed, inputs)
		}
	}
}

func TestRandomLogicDeterministic(t *testing.T) {
	a := RandomLogic(6, 8, 10, 42)
	b := RandomLogic(6, 8, 10, 42)
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("sizes differ")
	}
	for i := range a.Gates {
		ga, gb := a.Gates[i], b.Gates[i]
		if ga.Type != gb.Type || len(ga.Fanin) != len(gb.Fanin) {
			t.Fatalf("gate %d differs", i)
		}
		for k := range ga.Fanin {
			if ga.Fanin[k] != gb.Fanin[k] {
				t.Fatalf("gate %d fanin differs", i)
			}
		}
	}
}

func TestValidateCatchesBadNetlists(t *testing.T) {
	bad1 := &Netlist{Gates: []Gate{{ID: 1, Type: Input}}}
	if bad1.validate() == nil {
		t.Fatal("bad ID accepted")
	}
	bad2 := &Netlist{Gates: []Gate{{ID: 0, Type: Inv, Fanin: []int{0}}}}
	if bad2.validate() == nil {
		t.Fatal("self-loop accepted")
	}
	bad3 := &Netlist{Gates: []Gate{{ID: 0, Type: Nand2, Fanin: []int{0}}}}
	if bad3.validate() == nil {
		t.Fatal("wrong fanin count accepted")
	}
	bad4 := &Netlist{Gates: []Gate{{ID: 0, Type: Input}}, POs: []int{7}}
	if bad4.validate() == nil {
		t.Fatal("bad PO accepted")
	}
	minSize := RandomLogic(0, 0, 0, 1)
	if err := minSize.validate(); err != nil {
		t.Fatalf("clamped generator invalid: %v", err)
	}
}
