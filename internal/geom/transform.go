package geom

import "fmt"

// Orient is one of the eight layout orientations (the dihedral group of
// the square): rotations by multiples of 90 degrees, optionally
// composed with a mirror about the X axis (i.e. flipping Y), matching
// GDSII/OASIS placement semantics.
type Orient uint8

// The eight placement orientations.
const (
	R0   Orient = iota // identity
	R90                // rotate 90 CCW
	R180               // rotate 180
	R270               // rotate 270 CCW
	MX                 // mirror about X axis (y -> -y)
	MX90               // mirror about X then rotate 90 CCW
	MY                 // mirror about Y axis (x -> -x)
	MY90               // mirror about Y then rotate 90 CCW
)

func (o Orient) String() string {
	switch o {
	case R0:
		return "R0"
	case R90:
		return "R90"
	case R180:
		return "R180"
	case R270:
		return "R270"
	case MX:
		return "MX"
	case MX90:
		return "MX90"
	case MY:
		return "MY"
	case MY90:
		return "MY90"
	}
	return fmt.Sprintf("Orient(%d)", uint8(o))
}

// apply maps a point through the orientation about the origin.
func (o Orient) apply(p Point) Point {
	x, y := p.X, p.Y
	switch o {
	case R0:
		return Point{x, y}
	case R90:
		return Point{-y, x}
	case R180:
		return Point{-x, -y}
	case R270:
		return Point{y, -x}
	case MX:
		return Point{x, -y}
	case MX90:
		return Point{y, x}
	case MY:
		return Point{-x, y}
	case MY90:
		return Point{-y, -x}
	}
	return p
}

// Transform is an orientation followed by a translation, the placement
// operator for cell instances.
type Transform struct {
	Orient Orient
	Offset Point
}

// Identity is the do-nothing transform.
var Identity = Transform{}

// Apply maps a point through the transform.
func (t Transform) Apply(p Point) Point {
	return t.Orient.apply(p).Add(t.Offset)
}

// ApplyRect maps a rectangle through the transform, re-canonicalizing
// the corners.
func (t Transform) ApplyRect(r Rect) Rect {
	a := t.Apply(Point{r.X0, r.Y0})
	b := t.Apply(Point{r.X1, r.Y1})
	return R(a.X, a.Y, b.X, b.Y)
}

// Compose returns the transform equivalent to applying t after u
// (i.e. Compose(t,u).Apply(p) == t.Apply(u.Apply(p))).
func (t Transform) Compose(u Transform) Transform {
	return Transform{
		Orient: composeOrient(t.Orient, u.Orient),
		Offset: t.Orient.apply(u.Offset).Add(t.Offset),
	}
}

// composeOrient returns the orientation equivalent to applying a after b.
func composeOrient(a, b Orient) Orient {
	// Derive by probing two independent points; the dihedral group is
	// small enough that probing is clearer than a lookup table and is
	// immune to table transcription errors.
	p1 := a.apply(b.apply(Point{1, 0}))
	p2 := a.apply(b.apply(Point{0, 1}))
	for o := R0; o <= MY90; o++ {
		if o.apply(Point{1, 0}) == p1 && o.apply(Point{0, 1}) == p2 {
			return o
		}
	}
	return R0 // unreachable
}

// Translate returns a pure-translation transform.
func Translate(dx, dy int64) Transform {
	return Transform{Offset: Point{dx, dy}}
}
