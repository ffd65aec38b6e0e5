package sta

import "repro/internal/circuit"

// TypeLengths expands per-type equivalent lengths (typically
// litho-extracted at one process condition) into the per-gate Lengths
// STA consumes; missing types use nominal.
func TypeLengths(nl *circuit.Netlist, delayL, leakL map[circuit.GateType]float64) Lengths {
	lens := Lengths{
		Delay: make([]float64, len(nl.Gates)),
		Leak:  make([]float64, len(nl.Gates)),
	}
	for _, g := range nl.Gates {
		if d, ok := delayL[g.Type]; ok {
			lens.Delay[g.ID] = d
		}
		if k, ok := leakL[g.Type]; ok {
			lens.Leak[g.ID] = k
		}
	}
	return lens
}
