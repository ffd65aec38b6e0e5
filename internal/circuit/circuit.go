// Package circuit implements the gate-level netlist substrate for the
// timing experiments: gate types mirroring the layout standard-cell
// library, a DAG netlist with validation, and random combinational
// logic generators.
package circuit

import (
	"fmt"
	"math/rand"
)

// GateType enumerates the cell library.
type GateType uint8

// Gate types. Input is a primary input pseudo-gate.
const (
	Input GateType = iota
	Inv
	Nand2
	Nor2
	Buf
	NumGateTypes
)

var typeNames = [NumGateTypes]string{"input", "inv", "nand2", "nor2", "buf"}

func (t GateType) String() string {
	if t < NumGateTypes {
		return typeNames[t]
	}
	return fmt.Sprintf("gate(%d)", uint8(t))
}

// Fanin returns the input count of the gate type.
func (t GateType) Fanin() int {
	switch t {
	case Input:
		return 0
	case Inv, Buf:
		return 1
	case Nand2, Nor2:
		return 2
	}
	return 0
}

// CellName maps the gate type to its layout standard cell.
func (t GateType) CellName() string {
	switch t {
	case Inv:
		return "INVX1"
	case Nand2:
		return "NAND2X1"
	case Nor2:
		return "NOR2X1"
	case Buf:
		return "BUFX2"
	}
	return ""
}

// Gate is one netlist node; its ID is its index in Netlist.Gates.
type Gate struct {
	ID    int
	Type  GateType
	Fanin []int // driving gate IDs
}

// Netlist is a combinational DAG. Gates must be topologically ordered
// (fanins have smaller IDs), which the generators guarantee and the
// package's tests check.
type Netlist struct {
	Gates []Gate
	POs   []int // primary outputs (gate IDs)
}

// Fanouts returns, for each gate, the IDs of gates it drives.
func (n *Netlist) Fanouts() [][]int {
	out := make([][]int, len(n.Gates))
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			out[f] = append(out[f], g.ID)
		}
	}
	return out
}

// RandomLogic generates a layered random combinational netlist:
// `inputs` primary inputs, `levels` logic levels of `width` gates
// each, with fanins drawn from the previous few levels. Deterministic
// in the seed. Gates whose output drives nothing become POs.
func RandomLogic(inputs, levels, width int, seed int64) *Netlist {
	if inputs < 2 {
		inputs = 2
	}
	if levels < 1 {
		levels = 1
	}
	if width < 1 {
		width = 1
	}
	rnd := rand.New(rand.NewSource(seed))
	nl := &Netlist{}
	for i := 0; i < inputs; i++ {
		nl.Gates = append(nl.Gates, Gate{ID: len(nl.Gates), Type: Input})
	}
	prevStart := 0
	prevEnd := inputs
	logic := []GateType{Inv, Nand2, Nor2, Buf, Nand2, Nor2} // 2-input biased
	for l := 0; l < levels; l++ {
		start := len(nl.Gates)
		for w := 0; w < width; w++ {
			t := logic[rnd.Intn(len(logic))]
			g := Gate{ID: len(nl.Gates), Type: t}
			// Fanins mostly from the previous level, occasionally
			// further back (long wires).
			for k := 0; k < t.Fanin(); k++ {
				var src int
				if rnd.Float64() < 0.8 || prevStart == 0 {
					src = prevStart + rnd.Intn(prevEnd-prevStart)
				} else {
					src = rnd.Intn(prevEnd)
				}
				g.Fanin = append(g.Fanin, src)
			}
			nl.Gates = append(nl.Gates, g)
		}
		prevStart, prevEnd = start, len(nl.Gates)
	}
	// POs: gates that drive nothing.
	driven := make([]bool, len(nl.Gates))
	for _, g := range nl.Gates {
		for _, f := range g.Fanin {
			driven[f] = true
		}
	}
	for i, g := range nl.Gates {
		if !driven[i] && g.Type != Input {
			nl.POs = append(nl.POs, i)
		}
	}
	return nl
}

// Chain generates an n-stage inverter chain, the canonical timing
// characterization structure.
func Chain(n int) *Netlist {
	nl := &Netlist{}
	nl.Gates = append(nl.Gates, Gate{ID: 0, Type: Input})
	for i := 1; i <= n; i++ {
		nl.Gates = append(nl.Gates, Gate{ID: i, Type: Inv, Fanin: []int{i - 1}})
	}
	nl.POs = []int{n}
	return nl
}
