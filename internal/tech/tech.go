// Package tech defines the fictional process technologies the DFM
// stack is evaluated on: layer stacks, design-rule dimensions, and
// optical/defect parameters. The flagship node, "N45", has realistic
// 45nm-era magnitudes; "N45R" is the same node under restricted
// (regular-pitch) design rules, used by the restricted-rules
// experiment. None of the values are from any proprietary PDK; they
// are set to published ITRS-class numbers so that the *relationships*
// between rules (pitch = width + space, enclosure < width, etc.) are
// faithful.
package tech

import "fmt"

// Layer identifies a mask layer. The stack is fixed; the DFM flows only
// need front-end layers through Metal3.
type Layer uint8

// The layer stack, bottom-up.
const (
	Diff Layer = iota
	Poly
	Contact
	Metal1
	Via1
	Metal2
	Via2
	Metal3
	NumLayers
)

var layerNames = [NumLayers]string{
	"diff", "poly", "contact", "metal1", "via1", "metal2", "via2", "metal3",
}

func (l Layer) String() string {
	if l < NumLayers {
		return layerNames[l]
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// ParseLayer converts a layer name back to its Layer value.
func ParseLayer(s string) (Layer, error) {
	for i, n := range layerNames {
		if n == s {
			return Layer(i), nil
		}
	}
	return 0, fmt.Errorf("tech: unknown layer %q", s)
}

// IsVia reports whether the layer is a cut (via/contact) layer.
func (l Layer) IsVia() bool { return l == Contact || l == Via1 || l == Via2 }

// Below returns the routing/poly layer connected below a via layer.
func (l Layer) Below() Layer {
	switch l {
	case Contact:
		return Poly // contacts also land on diff; poly is the common case here
	case Via1:
		return Metal1
	case Via2:
		return Metal2
	}
	return l
}

// AboveOf returns the routing layer connected above a via layer.
func (l Layer) AboveOf() Layer {
	switch l {
	case Contact:
		return Metal1
	case Via1:
		return Metal2
	case Via2:
		return Metal3
	}
	return l
}

// LayerRules carries the per-layer design-rule dimensions, all in nm.
type LayerRules struct {
	MinWidth     int64 // minimum feature width
	MinSpace     int64 // minimum same-layer spacing
	MinArea      int64 // minimum polygon area, nm^2
	Pitch        int64 // preferred routing pitch (width + space)
	ViaSize      int64 // cut edge length (via layers only)
	ViaEnclosure int64 // metal enclosure of the cut at the wire ends (via layers only)
	ViaEncSide   int64 // metal enclosure of the cut on the wire sides (via layers only)
	ViaSpace     int64 // cut-to-cut spacing (via layers only)
	MaxDensity   float64
	MinDensity   float64
}

// Optics carries the lumped optical-model parameters used by the litho
// simulator. The model is a weighted stack of isotropic Gaussian
// kernels approximating the point-spread function of a partially
// coherent 193nm system; defocus broadens the kernels.
type Optics struct {
	Wavelength   float64   // nm (193 for ArF)
	NA           float64   // numerical aperture
	Sigmas       []float64 // kernel sigmas at best focus, nm
	Weights      []float64 // kernel weights (sum need not be 1; normalized at use)
	Threshold    float64   // resist threshold as fraction of clear-field intensity
	DefocusScale float64   // depth scale F, nm: sigma'(f) = sigma*sqrt(1+(f/F)^2)
	GridNM       float64   // raster grid pitch, nm/pixel
}

// Defects carries the defect-density model used by yield analysis.
type Defects struct {
	// D0 is the particle density per cm^2 per defect mechanism.
	D0 float64
	// X0 is the smallest observable defect diameter, nm. The size
	// distribution is the standard 1/x^3 power law above X0.
	X0 float64
	// XMax is the largest modeled defect diameter, nm.
	XMax float64
	// ViaFailProb is the probability an isolated single via is
	// resistive/open (per via).
	ViaFailProb float64
	// Alpha is the clustering parameter of the negative-binomial yield
	// model.
	Alpha float64
}

// Tech bundles everything a node exposes to the flows.
type Tech struct {
	Name    string
	Rules   [NumLayers]LayerRules
	Optics  Optics
	Defects Defects
	// CellHeight is the standard-cell row height, nm.
	CellHeight int64
	// PolyPitch is the contacted gate pitch, nm.
	PolyPitch int64
	// GateLength is the drawn transistor gate length, nm.
	GateLength int64
	// Restricted marks restricted-design-rule variants (fixed pitch,
	// single orientation poly).
	Restricted bool
}

// N45 returns the baseline 45nm-class node.
func N45() *Tech {
	t := &Tech{
		Name:       "N45",
		CellHeight: 1400,
		PolyPitch:  190,
		GateLength: 45,
	}
	t.Rules[Diff] = LayerRules{MinWidth: 80, MinSpace: 100, MinArea: 20000, Pitch: 180}
	t.Rules[Poly] = LayerRules{MinWidth: 45, MinSpace: 120, MinArea: 10000, Pitch: 190}
	t.Rules[Contact] = LayerRules{ViaSize: 60, ViaEnclosure: 20, ViaEncSide: 5, ViaSpace: 80, MinWidth: 60, MinSpace: 80}
	t.Rules[Metal1] = LayerRules{MinWidth: 70, MinSpace: 70, MinArea: 20000, Pitch: 140, MaxDensity: 0.80, MinDensity: 0.20}
	t.Rules[Via1] = LayerRules{ViaSize: 60, ViaEnclosure: 20, ViaEncSide: 5, ViaSpace: 80, MinWidth: 60, MinSpace: 80}
	t.Rules[Metal2] = LayerRules{MinWidth: 70, MinSpace: 70, MinArea: 20000, Pitch: 140, MaxDensity: 0.80, MinDensity: 0.20}
	t.Rules[Via2] = LayerRules{ViaSize: 60, ViaEnclosure: 20, ViaEncSide: 5, ViaSpace: 80, MinWidth: 60, MinSpace: 80}
	t.Rules[Metal3] = LayerRules{MinWidth: 100, MinSpace: 100, MinArea: 40000, Pitch: 200, MaxDensity: 0.80, MinDensity: 0.20}
	t.Optics = Optics{
		Wavelength:   193,
		NA:           1.2,
		Sigmas:       []float64{35, 90},
		Weights:      []float64{0.8, 0.2},
		Threshold:    0.30,
		DefocusScale: 150,
		GridNM:       5,
	}
	t.Defects = Defects{
		D0:          0.25, // defects per cm^2
		X0:          30,
		XMax:        2000,
		ViaFailProb: 1e-6,
		Alpha:       2.0,
	}
	return t
}

// N45R returns the restricted-design-rule variant of N45: wider
// minimum dimensions on the critical layers, fixed routing pitch, and
// gate shapes on a single orientation. Litho variability shrinks; area
// grows. Used by experiment T6.
func N45R() *Tech {
	t := N45()
	t.Name = "N45R"
	t.Restricted = true
	t.Rules[Poly].MinSpace = 145
	t.PolyPitch = 210
	t.Rules[Metal1].MinWidth = 80
	t.Rules[Metal1].MinSpace = 80
	t.Rules[Metal1].Pitch = 160
	t.Rules[Metal2] = t.Rules[Metal1]
	return t
}

// HalfPitch returns the metal1 half pitch, the node's headline
// dimension.
func (t *Tech) HalfPitch() int64 { return t.Rules[Metal1].Pitch / 2 }

// K1 returns the Rayleigh k1 factor for the node's minimum half pitch:
// k1 = HP * NA / lambda. Values below ~0.35 are aggressive.
func (t *Tech) K1() float64 {
	return float64(t.HalfPitch()) * t.Optics.NA / t.Optics.Wavelength
}
