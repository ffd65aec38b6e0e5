package layout

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Block generator: places rows of random standard cells and routes
// random multi-pin signal nets over them on metal2 (horizontal tracks)
// and metal3 (vertical tracks), with contact/via stacks at the pins.
// The output is the synthetic stand-in for a placed-and-routed product
// block: it has realistic layer populations, net annotations for
// critical-area analysis, and via counts for the redundant-via flow.

// BlockOpts parameterizes GenerateBlock.
type BlockOpts struct {
	Rows     int   // number of cell rows
	RowWidth int64 // minimum row width in nm
	Nets     int   // number of signal nets to route
	MaxFan   int   // maximum pins per net (min 2)
	Seed     int64 // RNG seed; same seed -> identical layout
}

// RowChannel is the inter-row routing channel height in nm. Input-pin
// metal1 pads reach 570nm below the row origin, so the channel keeps
// facing rows' poly and metal1 legally separated (570 + 70 spacing,
// rounded up).
const RowChannel int64 = 700

// pinRef is a flat signal pin available for routing.
type pinRef struct {
	at  geom.Point
	box geom.Rect
}

// GenerateBlock builds a placed-and-routed block layout.
func GenerateBlock(t *tech.Tech, opts BlockOpts) (*Layout, error) {
	if opts.Rows <= 0 || opts.RowWidth <= 0 {
		return nil, fmt.Errorf("layout: block needs positive Rows and RowWidth")
	}
	if opts.MaxFan < 2 {
		opts.MaxFan = 2
	}
	rnd := rand.New(rand.NewSource(opts.Seed))
	lib := NewLib(t)
	l := NewLayout(t)
	top := NewCell(fmt.Sprintf("BLOCK_r%d_n%d_s%d", opts.Rows, opts.Nets, opts.Seed))
	if err := l.AddCell(top); err != nil {
		return nil, err
	}
	for _, n := range lib.Names {
		if err := l.AddCell(lib.Cells[n]); err != nil {
			return nil, err
		}
	}

	// Cells eligible for random placement (TAP used as filler).
	placeable := []string{"INVX1", "NAND2X1", "NOR2X1", "BUFX2", "DFFX1"}
	tap := lib.Cells["TAP"]

	// Rows are separated by a routing channel: cell input-pin pads hang
	// ~400nm below each row into it, and the M2/M3 pin escapes land
	// there without colliding with intra-cell metal1.
	rowPitch := t.CellHeight + RowChannel

	var pins []pinRef
	instCount := 0
	for row := 0; row < opts.Rows; row++ {
		y := int64(row) * rowPitch
		var x int64
		for x < opts.RowWidth {
			c := lib.Cells[placeable[rnd.Intn(len(placeable))]]
			w := c.BBox().X1
			tr := geom.Translate(x, y)
			top.Place(c, tr, fmt.Sprintf("i%d", instCount))
			instCount++
			for _, p := range c.Pins {
				box := tr.ApplyRect(p.R)
				pins = append(pins, pinRef{at: box.Center(), box: box})
			}
			x += w
		}
		// Terminate the row with a tap for density realism.
		top.Place(tap, geom.Translate(x, y), fmt.Sprintf("tap%d", row))
		instCount++
	}

	routeNets(t, top, pins, opts, rnd)
	return l, nil
}

// router holds the per-layer occupancy indexes used to keep routed
// nets short-free: a candidate connection is committed only if all of
// its metal2/metal3 geometry clears every previously committed wire by
// the layer's minimum spacing.
type router struct {
	t      *tech.Tech
	top    *Cell
	m2     *geom.Index
	m3     *geom.Index
	m2Nets []NetID // net of each rect in m2, parallel to index ids
	m3Nets []NetID
	grid   int64
}

func newRouter(t *tech.Tech, top *Cell) *router {
	return &router{
		t:    t,
		top:  top,
		m2:   geom.NewIndex(top.BBox(), 8*t.Rules[tech.Metal2].Pitch),
		m3:   geom.NewIndex(top.BBox(), 8*t.Rules[tech.Metal3].Pitch),
		grid: t.Rules[tech.Metal2].Pitch,
	}
}

// routeNets connects random pin groups with M2/M3 routing.
func routeNets(t *tech.Tech, top *Cell, pins []pinRef, opts BlockOpts, rnd *rand.Rand) {
	rt := newRouter(t, top)
	perm := rnd.Perm(len(pins))
	next := 0
	takePin := func() (pinRef, bool) {
		if next >= len(perm) {
			return pinRef{}, false
		}
		p := pins[perm[next]]
		next++
		return p, true
	}

	net := NetID(2) // 0,1 reserved for rails
	for n := 0; n < opts.Nets; n++ {
		fan := 2 + rnd.Intn(opts.MaxFan-1)
		var group []pinRef
		for len(group) < fan {
			p, ok := takePin()
			if !ok {
				break
			}
			group = append(group, p)
		}
		if len(group) < 2 {
			break
		}
		// Chain pins left to right for shorter wires.
		sort.Slice(group, func(i, j int) bool { return group[i].at.X < group[j].at.X })
		for i := 0; i+1 < len(group); i++ {
			rt.routePair(group[i], group[i+1], net, rnd)
		}
		net++
	}
}

// candidate is the geometry of one tentative connection.
type candidate struct {
	m2, m3 []geom.Rect // wire + pad rects per layer
	vias1  []geom.Point
	vias2  []geom.Point
}

// routePair routes one two-pin connection:
//
//	pin A -> via1 -> M2 jog -> via2 -> M3 column -> via2
//	  -> M2 span -> via2 -> M3 column -> via2 -> M2 jog -> via1 -> pin B
//
// The route is built as a candidate, checked against the occupancy
// indexes, and committed atomically; on conflict, alternative column
// and span positions are tried before the connection is dropped.
func (rt *router) routePair(a, b pinRef, net NetID, rnd *rand.Rand) bool {
	t := rt.t
	w2 := t.Rules[tech.Metal2].MinWidth
	w3 := t.Rules[tech.Metal3].MinWidth
	p3 := t.Rules[tech.Metal3].Pitch
	midY := (a.at.Y + b.at.Y) / 2

	for try := 0; try < 24; try++ {
		// Offsets sweep outward deterministically, with a touch of
		// seeded randomness to decorrelate repeated congestion. All
		// offsets stay on the layer grids so same-net wires either
		// merge or keep a full pitch.
		off3 := int64(try/2) * p3
		if try%2 == 1 {
			off3 = -off3
		}
		jitter := (rnd.Int63n(3) - 1) * p3
		xa := snapTo(a.at.X, p3) + off3 + jitter
		xb := snapTo(b.at.X, p3) - off3
		if xa != xb && abs64(xa-xb) < p3 {
			xb = xa // near-coincident columns merge into one
		}
		off2 := int64(try/2) * rt.grid
		if try%2 == 1 {
			off2 = -off2
		}
		span := snapTo(midY, rt.grid) + off2
		// A span track too close to a pin jog would form a same-net
		// sub-pitch notch; make them collinear instead.
		if d := abs64(span - a.at.Y); d > 0 && d < 170 {
			span = a.at.Y
		} else if d := abs64(span - b.at.Y); d > 0 && d < 170 {
			span = b.at.Y
		}

		// Minimum wire lengths that satisfy the metal min-area rules
		// even for degenerate (short) segments.
		minLen2 := t.Rules[tech.Metal2].MinArea/w2 + 40
		minLen3 := t.Rules[tech.Metal3].MinArea/w3 + 40

		c := candidate{}
		// Pin escapes: via1 directly on each pin, M2 jog to the column.
		c.vias1 = append(c.vias1, a.at, b.at)
		c.m2 = append(c.m2,
			hWire(a.at.Y, a.at.X, xa, w2, minLen2),
			hWire(b.at.Y, b.at.X, xb, w2, minLen2))
		// Columns up/down to the span track.
		c.vias2 = append(c.vias2,
			geom.Pt(xa, a.at.Y), geom.Pt(xb, b.at.Y),
			geom.Pt(xa, span), geom.Pt(xb, span))
		c.m3 = append(c.m3,
			vWire(xa, a.at.Y, span, w3, minLen3),
			vWire(xb, b.at.Y, span, w3, minLen3))
		// The span itself.
		c.m2 = append(c.m2, hWire(span, xa, xb, w2, minLen2))
		// Via pads participate in spacing checks on their layers.
		for _, p := range c.vias1 {
			c.m2 = append(c.m2, rt.viaPad(tech.Via1, p, true))
		}
		for _, p := range c.vias2 {
			c.m2 = append(c.m2, rt.viaPad(tech.Via2, p, true))
			c.m3 = append(c.m3, rt.viaPad(tech.Via2, p, false))
		}

		if rt.clear(rt.m2, rt.m2Nets, c.m2, t.Rules[tech.Metal2].MinSpace, net) &&
			rt.clear(rt.m3, rt.m3Nets, c.m3, t.Rules[tech.Metal3].MinSpace, net) {
			rt.commit(c, net)
			return true
		}
	}
	return false // congested; drop the connection (net becomes partial)
}

// clear reports whether every rect keeps at least the given spacing to
// all committed geometry of *other* nets on the layer; same-net
// proximity and overlap is legal connectivity.
func (rt *router) clear(ix *geom.Index, nets []NetID, rs []geom.Rect, space int64, net NetID) bool {
	for _, r := range rs {
		conflict := false
		ix.QueryFunc(r.Bloat(space), func(id int, q geom.Rect) bool {
			if nets[id] != net {
				conflict = true
				return false
			}
			return true
		})
		if conflict {
			return false
		}
	}
	return true
}

// commit emits the candidate's shapes into the top cell and registers
// its geometry in the occupancy indexes.
func (rt *router) commit(c candidate, net NetID) {
	for _, r := range c.m2 {
		rt.top.AddNet(tech.Metal2, r, net)
		rt.m2.Insert(r)
		rt.m2Nets = append(rt.m2Nets, net)
	}
	for _, r := range c.m3 {
		rt.top.AddNet(tech.Metal3, r, net)
		rt.m3.Insert(r)
		rt.m3Nets = append(rt.m3Nets, net)
	}
	for _, p := range c.vias1 {
		rt.addVia(tech.Via1, p, net)
	}
	for _, p := range c.vias2 {
		rt.addVia(tech.Via2, p, net)
	}
}

// viaPad returns the metal enclosure pad rect of a via at p: end
// enclosure along the wire direction, side enclosure across it.
func (rt *router) viaPad(via tech.Layer, p geom.Point, horizontal bool) geom.Rect {
	r := rt.t.Rules[via]
	vs := r.ViaSize
	cut := geom.R(p.X-vs/2, p.Y-vs/2, p.X+vs/2, p.Y+vs/2)
	if horizontal {
		return cut.BloatXY(r.ViaEnclosure, r.ViaEncSide)
	}
	return cut.BloatXY(r.ViaEncSide, r.ViaEnclosure)
}

// addVia emits a cut centered at p. The metal enclosure pads were
// already emitted and indexed by commit (via1's metal1 enclosure is
// the cell's pin landing pad).
func (rt *router) addVia(via tech.Layer, p geom.Point, net NetID) {
	vs := rt.t.Rules[via].ViaSize
	cut := geom.R(p.X-vs/2, p.Y-vs/2, p.X+vs/2, p.Y+vs/2)
	rt.top.AddNet(via, cut, net)
}

// hWire returns a horizontal wire rect centered on y from x0 to x1 with
// half-width end extensions, lengthened symmetrically to minLen when
// shorter (min-area compliance).
func hWire(y, x0, x1, w, minLen int64) geom.Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	x0, x1 = x0-w/2, x1+w/2
	if l := x1 - x0; l < minLen {
		pad := (minLen - l + 1) / 2
		x0 -= pad
		x1 += pad
	}
	return geom.R(x0, y-w/2, x1, y+w/2)
}

// vWire returns a vertical wire rect centered on x from y0 to y1,
// lengthened symmetrically to minLen when shorter.
func vWire(x, y0, y1, w, minLen int64) geom.Rect {
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	y0, y1 = y0-w/2, y1+w/2
	if l := y1 - y0; l < minLen {
		pad := (minLen - l + 1) / 2
		y0 -= pad
		y1 += pad
	}
	return geom.R(x-w/2, y0, x+w/2, y1)
}

// snapTo rounds v to the nearest multiple of pitch.
func snapTo(v, pitch int64) int64 {
	half := pitch / 2
	if v >= 0 {
		return ((v + half) / pitch) * pitch
	}
	return -(((-v + half) / pitch) * pitch)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
