package layout

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tt := tech.N45()
	l, err := GenerateBlock(tt, BlockOpts{Rows: 2, RowWidth: 6000, Nets: 5, MaxFan: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tech == nil || back.Tech.Name != "N45" {
		t.Fatalf("tech lost in round trip: %+v", back.Tech)
	}
	if back.Top == nil || back.Top.Name != l.Top.Name {
		t.Fatalf("top lost: %v", back.Top)
	}
	fa, fb := l.Flatten(), back.Flatten()
	if len(fa) != len(fb) {
		t.Fatalf("flat shape counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("shape %d differs after round trip: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"rect outside cell", "rect metal1 0 0 10 10\n"},
		{"unknown layer", "cell A\nrect bogus 0 0 10 10\nend\n"},
		{"unknown directive", "wibble\n"},
		{"unknown tech", "tech N7\ncell A\nend\n"},
		{"inst before def", "cell A\ninst B R0 0 0\nend\n"},
		{"bad orient", "cell B\nend\ncell A\ninst B R45 0 0\nend\n"},
		{"unterminated cell", "cell A\n"},
		{"nested cell", "cell A\ncell B\n"},
		{"duplicate cell", "cell A\nend\ncell A\nend\n"},
		{"bad coords", "cell A\nrect metal1 a b c d\nend\n"},
		{"top unknown", "cell A\nend\ntop ZZZ\n"},
		{"end without cell", "end\n"},
		{"malformed pin", "cell A\npin P metal1 0 0 1 1\nend\n"},
		{"empty", ""},
		{"comments only", "# header\n\n# nothing else\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// doublingFile writes doubling(levels) as a layout file: a few KB (64
// levels take 3 KB) that flatten to 2^levels shapes.
func doublingFile(levels int) string {
	var b strings.Builder
	b.WriteString("cell D0\nrect metal1 0 0 10 10\nend\n")
	for k := 1; k <= levels; k++ {
		fmt.Fprintf(&b, "cell D%d\ninst D%d R0 0 0 a\ninst D%d R0 20 0 b\nend\n", k, k-1, k-1)
	}
	return b.String()
}

// Read counts what a file flattens to before any caller can flatten it:
// the 64-level file is refused (never flattened, here or in Read), the
// bound itself is taken.
func TestReadRefusesWhatFlattensTooFar(t *testing.T) {
	for _, tc := range []struct {
		levels int
		want   string // "" when the file is accepted
	}{
		{64, "flattens to 9223372036854775807 shapes, over the bound of 16777216"},
		{25, "flattens to 33554432 shapes, over the bound of 16777216"},
		{24, ""},
	} {
		l, err := Read(strings.NewReader(doublingFile(tc.levels)))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%d levels: %v", tc.levels, err)
		case tc.want == "" && Extents(l.Top)[l.Top].Rects != maxReadRects:
			t.Errorf("%d levels: top %s counts %d shapes, want %d", tc.levels, l.Top.Name, Extents(l.Top)[l.Top].Rects, maxReadRects)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%d levels: err = %v, want %q", tc.levels, err, tc.want)
		}
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	in := "# header\n\ncell A\n  rect metal1 0 0 10 10 net 4\n\nend\n"
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	c := l.Cells["A"]
	if c == nil || len(c.Shapes) != 1 || c.Shapes[0].Net != 4 {
		t.Fatalf("parse result wrong: %+v", c)
	}
	// Top falls back to the only cell; with no tech line, Tech is nil.
	if l.Top != c {
		t.Fatalf("top fallback failed")
	}
	if l.Tech != nil {
		t.Fatalf("no tech line, yet Tech = %s", l.Tech.Name)
	}
}

func TestTopFallbackPicksUninstantiated(t *testing.T) {
	in := "cell LEAF\nrect metal1 0 0 5 5\nend\ncell ROOT\ninst LEAF R0 0 0\nend\n"
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.Top == nil || l.Top.Name != "ROOT" {
		t.Fatalf("top fallback = %v, want ROOT", l.Top)
	}
}

func TestWriteDetectsCycles(t *testing.T) {
	l := NewLayout(tech.N45())
	a, b := NewCell("A"), NewCell("B")
	_ = l.AddCell(a)
	_ = l.AddCell(b)
	a.Place(b, geom.Identity, "x")
	b.Place(a, geom.Identity, "y")
	var buf bytes.Buffer
	if err := Write(&buf, l); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestWriteChildrenFirst(t *testing.T) {
	l := NewLayout(tech.N45())
	leaf := NewCell("ZLEAF") // name sorts after ROOT
	leaf.Add(tech.Metal1, geom.R(0, 0, 5, 5))
	root := NewCell("ROOT")
	root.Place(leaf, geom.Identity, "i")
	_ = l.AddCell(root)
	_ = l.AddCell(leaf)
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Index(s, "cell ZLEAF") > strings.Index(s, "cell ROOT") {
		t.Fatalf("children not written first:\n%s", s)
	}
	// And the output re-reads.
	if _, err := Read(strings.NewReader(s)); err != nil {
		t.Fatalf("re-read failed: %v", err)
	}
}
