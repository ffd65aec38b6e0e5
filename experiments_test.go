package repro

// The paper-side experiments of DESIGN.md's index — T1..T7, F1..F6, six
// design-choice ablations — as one table. Two
// callers read it: TestExperimentTables renders every experiment and
// diffs the rows against testdata/experiments.golden, and
// BenchmarkExperiment times each one as a sub-benchmark. EXPERIMENTS.md
// and README.md quote the golden file in tagged blocks, which
// TestDocsQuoteGolden holds equal to it, so a row has one source.
//
//	go test -run TestExperimentTables -update .   # regenerate the golden file
//	go test -run='^$' -bench 'Experiment/T7' .     # time one experiment

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dfm"
	"repro/internal/dpt"
	"repro/internal/dvia"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/opc"
	"repro/internal/pattern"
	"repro/internal/sta"
	"repro/internal/tech"
	yieldpkg "repro/internal/yield"
)

var update = flag.Bool("update", false, "rewrite the golden file of each test run (testdata/experiments.golden, testdata/chips.golden)")

const goldenPath = "testdata/experiments.golden"

// experiment is one entry of the index. prepare does the set-up that is
// not part of the experiment's cost, on a fresh N45 node, and returns the
// computation that yields its rows.
type experiment struct {
	id      string
	prepare func(tb testing.TB, t *tech.Tech) func() []string
}

// addf appends one formatted row.
func addf(out *[]string, format string, a ...any) { *out = append(*out, fmt.Sprintf(format, a...)) }

// direct is the prepare of an experiment with no set-up to keep out of
// its cost.
func direct(run func(tb testing.TB, t *tech.Tech) []string) func(testing.TB, *tech.Tech) func() []string {
	return func(tb testing.TB, t *tech.Tech) func() []string {
		return func() []string { return run(tb, t) }
	}
}

// flatBlock generates a routed block and flattens it.
func flatBlock(tb testing.TB, t *tech.Tech, o layout.BlockOpts) []layout.Shape {
	tb.Helper()
	l, err := layout.GenerateBlock(t, o)
	if err != nil {
		tb.Fatal(err)
	}
	return l.Flatten()
}

// evaluated runs one technique of the scorecard at seed, on the
// scorecard's block, and fails the experiment on an evaluation error.
func evaluated(tb testing.TB, t *tech.Tech, name string, seed int64) dfm.Outcome {
	tb.Helper()
	task, err := dfm.TechniqueTask(t, name, seed, dfm.DefaultBlock())
	if err != nil {
		tb.Fatal(err)
	}
	o, err := task.Run(context.Background(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return o.(dfm.Outcome)
}

// simulate runs litho.Simulate to completion.
func simulate(tb testing.TB, mask []geom.Rect, window geom.Rect, t *tech.Tech, cond litho.Condition) *litho.Image {
	tb.Helper()
	img, err := litho.Simulate(context.Background(), mask, window, t.Optics, cond)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// finalRMS is the RMS EPE a model-OPC run converged to.
func finalRMS(res opc.Result) float64 { return res.RMSHistory[len(res.RMSHistory)-1] }

// modelOPC runs opc.ModelBased to completion on a handle of its own.
func modelOPC(tb testing.TB, drawn []geom.Rect, window geom.Rect, t *tech.Tech, mo opc.ModelOpts) opc.Result {
	tb.Helper()
	res, err := opc.ModelBased(context.Background(), drawn, window, litho.NewRasterMask(nil, window, t.Optics, 0), mo)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

var experiments = []experiment{
	// T1: redundant-via insertion yield gain vs cost across block sizes.
	{"T1", direct(func(tb testing.TB, t *tech.Tech) (out []string) {
		t.Defects.ViaFailProb = 1e-5
		for _, r := range []int{2, 4, 6} {
			flat := flatBlock(tb, t, layout.BlockOpts{Rows: r, RowWidth: 10000, Nets: 10 * r, MaxFan: 4, Seed: int64(r)})
			g, err := dvia.EvaluateInsertion(context.Background(), flat, t)
			if err != nil {
				tb.Fatal(err)
			}
			addf(&out, "rows=%d vias=%d singles=%d doubled=%d Yvia %.6f -> %.6f",
				r, g.SinglesBefore+2*g.PairsBefore, g.SinglesBefore, g.AddedCuts, g.Before, g.After)
		}
		return out
	})},
	// T2: hotspot capture, plain DRC vs DRC Plus pattern matching.
	{"T2", direct(func(tb testing.TB, t *tech.Tech) []string {
		o := evaluated(tb, t, "drc-plus", 11)
		p, _ := o.Primary()
		return []string{fmt.Sprintf("capture: plain DRC %.2f -> DRC Plus %.2f (%s)", p.Before, p.After, o.CostNote)}
	})},
	// T3: EPE statistics for no / rule-based / model-based OPC.
	{"T3", direct(func(tb testing.TB, t *tech.Tech) (out []string) {
		for _, m := range evaluated(tb, t, "model-opc", 11).Metrics {
			addf(&out, "%s: %.2f -> %.2f %s", m.Name, m.Before, m.After, m.Unit)
		}
		return out
	})},
	// F1: focus-exposure window of an isolated line with and without SRAFs.
	{"F1", func(tb testing.TB, t *tech.Tech) func() []string {
		bare := geom.Normalize([]geom.Rect{geom.R(0, 0, 70, 3000)})
		window := geom.R(-450, 1200, 550, 1800)
		defocus := []float64{0, 20, 40, 60, 80, 100, 120, 140, 160}
		dose := []float64{0.92, 0.96, 1.0, 1.04, 1.08}
		return func() (out []string) {
			measure := func(mask []geom.Rect, tag string) float64 {
				cd0, ok := simulate(tb, mask, window, t, litho.Nominal).CDAt(35, 1500, true)
				if !ok {
					tb.Fatalf("%s: no print", tag)
				}
				pts, err := litho.NewRasterMask(mask, window, t.Optics, defocus[len(defocus)-1]).FEMatrix(context.Background(),
					35, 1500, true, litho.CDSpec{Target: cd0, Tol: 0.10}, defocus, dose)
				if err != nil {
					tb.Fatal(err)
				}
				dof := litho.DepthOfFocus(pts, defocus)
				addf(&out, "%s: nominal CD %.1fnm, DOF %.0fnm, EL@0 %.2f", tag, cd0, dof, litho.ExposureLatitude(pts, 0))
				for _, f := range defocus {
					for _, p := range pts {
						if p.Cond.Defocus == f && p.Cond.Dose == 1.0 {
							addf(&out, "%s f=%3.0f CD=%.1f ok=%v", tag, f, p.CD, p.OK)
						}
					}
				}
				return dof
			}
			dofB := measure(bare, "bare")
			if dofS := measure(opc.WithSRAF(bare), "sraf"); dofS < dofB {
				tb.Fatalf("SRAF shrank DOF: %v -> %v", dofB, dofS)
			}
			return out
		}
	}},
	// F2: critical area vs defect size, and yield vs defect density.
	{"F2", func(tb testing.TB, t *tech.Tech) func() []string {
		flat := flatBlock(tb, t, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 20, MaxFan: 3, Seed: 2})
		nets := layout.NetsOn(flat, tech.Metal1)
		d := yieldpkg.SizeDist{X0: t.Defects.X0, XMax: t.Defects.XMax}
		return func() (out []string) {
			for _, p := range yieldpkg.Curve(d, func(x int64) int64 { return yieldpkg.ShortCriticalArea(nets, x) }, 8) {
				addf(&out, "CA_short_m1(x=%.0fnm) = %d nm2", p.X, p.CA)
			}
			// Combined average critical area over the routing layers.
			var ac float64
			for _, lay := range []tech.Layer{tech.Metal1, tech.Metal2, tech.Metal3} {
				lr := yieldpkg.AnalyzeLayer(flat, lay, t.Defects)
				ac += lr.ShortAC + lr.OpenAC
			}
			// Yield-vs-density falloff shows at chip scale: extrapolate the
			// block's average critical area to a 0.5 cm^2 die.
			blockArea := float64(geom.BBoxOf(layout.ByLayer(flat)[tech.Metal1]).Area())
			scale := 0.5e14 / blockArea // 0.5 cm^2 in nm^2
			for _, d0 := range []float64{0.1, 0.25, 0.5, 1.0, 2.0} {
				addf(&out, "chip yield(D0=%.2f/cm2) Poisson=%.4f NB=%.4f",
					d0, yieldpkg.Poisson(ac*scale, d0), yieldpkg.NegBinomial(ac*scale, d0, t.Defects.Alpha))
			}
			return out
		}
	}},
	// T4: dummy-fill density uniformity and CMP planarity, with area cost.
	{"T4", direct(func(tb testing.TB, t *tech.Tech) (out []string) {
		o := evaluated(tb, t, "dummy-fill", 11)
		for _, m := range o.Metrics {
			addf(&out, "%s: %.4f -> %.4f %s", m.Name, m.Before, m.After, m.Unit)
		}
		addf(&out, "cost: %.2f%% added metal (%s)", 100*o.CostFrac, o.CostNote)
		return out
	})},
	// T5: drawn vs post-OPC-extracted timing.
	{"T5", direct(func(tb testing.TB, t *tech.Tech) (out []string) {
		for _, m := range evaluated(tb, t, "litho-aware-timing", 9).Metrics {
			addf(&out, "%s: %.4f %s", m.Name, m.Before, m.Unit)
		}
		return out
	})},
	// F3: pattern catalog coverage and cross-design KL divergence. The
	// headline series follows the source study: via-enclosure patterns
	// (metal2 context around every via1 cut); an M1-corner catalog is the
	// irregular-layer contrast.
	{"F3", func(tb testing.TB, t *tech.Tech) func() []string {
		mk := func(seed int64) (m1, m2, vias []geom.Rect) {
			by := layout.ByLayer(flatBlock(tb, t, layout.BlockOpts{Rows: 4, RowWidth: 12000, Nets: 40, MaxFan: 4, Seed: seed}))
			return by[tech.Metal1], by[tech.Metal2], by[tech.Via1]
		}
		m1A, m2A, viasA := mk(1)
		_, m2B, viasB := mk(2)
		viaCat := func(m2, vias []geom.Rect) *pattern.Catalog {
			cat := pattern.NewCatalog(150)
			l := geom.BandedOf(geom.Normalize(m2))
			for _, v := range vias {
				cat.Add(pattern.ExtractAt(l, v.Center(), 150), v.Center())
			}
			return cat
		}
		return func() (out []string) {
			catA, catB := viaCat(m2A, viasA), viaCat(m2B, viasB)
			cornerCat := pattern.NewCatalog(200)
			cornerCat.AddLayer(m1A)
			addf(&out, "via-enclosure catalog A: %d vias, %d classes", catA.Total(), catA.NumClasses())
			for _, k := range []int{1, 5, 10, 20} {
				addf(&out, "via coverage(top %d) = %.3f", k, catA.Coverage(k))
			}
			addf(&out, "via classes for 90%% coverage: %d", catA.ClassesFor(0.90))
			addf(&out, "KL(A||B) = %.4f, KL(B||A) = %.4f", catA.KLDivergence(catB), catB.KLDivergence(catA))
			addf(&out, "outliers in A vs B (10x, >=5): %d", len(catA.Outliers(catB, 10, 5)))
			addf(&out, "m1-corner catalog: %d instances, %d classes, top-10 coverage %.3f",
				cornerCat.Total(), cornerCat.NumClasses(), cornerCat.Coverage(10))
			return out
		}
	}},
	// T6: restricted design rules, PV-band robustness vs area.
	{"T6", direct(func(tb testing.TB, t *tech.Tech) (out []string) {
		o := evaluated(tb, t, "restricted-rules", 11)
		for _, m := range o.Metrics {
			addf(&out, "%s: %.4g -> %.4g %s", m.Name, m.Before, m.After, m.Unit)
		}
		addf(&out, "area cost: %.2f%%", 100*o.CostFrac)
		return out
	})},
	// F4: timing/leakage distributions, nominal vs litho-systematic means.
	{"F4", func(tb testing.TB, t *tech.Tech) func() []string {
		nl := circuit.RandomLogic(10, 12, 14, 9)
		lib := sta.DefaultLib()
		nom := sta.Analyze(nl, lib, sta.Lengths{}, 0)
		period := 1.05 * nom.Arrival[nom.Critical[len(nom.Critical)-1]]
		gl, err := dfm.ExtractGateLengths(context.Background(), t, litho.Nominal, true)
		if err != nil {
			tb.Fatal(err)
		}
		return func() (out []string) {
			row := func(tag string, v sta.Variation) {
				mc := sta.MonteCarlo(nl, lib, v, period, 200, 1)
				addf(&out, "%s WNS %.1f+-%.1f ps (min %.1f), leak %.3g+-%.2g A",
					tag, mc.WNSMean, mc.WNSSigma, mc.WNSMin, mc.LeakMean, mc.LeakSigma)
			}
			row("nominal-mean MC:", sta.Variation{SigmaL: 1.5})
			row("litho-mean MC:  ", sta.Variation{SigmaL: 1.5, SystematicL: gl.Delay})
			return out
		}
	}},
	// T7: the full hit-or-hype scorecard at seed 11, then the bar each
	// verdict was judged against, read from dfm's thresholds table.
	{"T7", direct(func(tb testing.TB, t *tech.Tech) []string {
		out := lines(dfm.RunAllConfig(context.Background(), t, 11, dfm.DefaultConfig()).Table())
		for _, th := range dfm.Thresholds() {
			addf(&out, "%-22s %s", th.Technique, th.Bar())
		}
		return out
	})},
	// F5 (extension): double-patterning conflicts vs pitch on a
	// diagonal-adjacency grid.
	{"F5", direct(func(tb testing.TB, _ *tech.Tech) (out []string) {
		for _, pitch := range []int64{400, 300, 250, 200, 170} {
			var rs []geom.Rect
			rnd := rand.New(rand.NewSource(3))
			for x := int64(0); x < 10; x++ {
				for y := int64(0); y < 10; y++ {
					ox := rnd.Int63n(pitch / 4)
					rs = append(rs, geom.R(x*pitch+ox+y*pitch/2, y*pitch, x*pitch+ox+y*pitch/2+80, y*pitch+80))
				}
			}
			res := dpt.Decompose(rs, 160, true, 40)
			addf(&out, "pitch=%d edges=%d conflicts=%d stitches=%d imbalance=%.3f",
				pitch, res.Edges, len(res.Conflicts), res.Stitches, res.DensityBalance())
		}
		return out
	})},
	// F6 (extension): computational technology scaling. Shrink a
	// standard-cell poly layer by progressive factors, run the full flow
	// (OPC the scaled layout, verify the print against the scaled target)
	// and watch printability find the breaking point.
	{"F6", func(tb testing.TB, t *tech.Tech) func() []string {
		poly := geom.Normalize(layout.Nand2(t).LayerRects(tech.Poly))
		return func() (out []string) {
			for _, num := range []int64{10, 9, 8, 7, 6} {
				scaled := geom.Scale(poly, num, 10)
				window := geom.BBoxOf(scaled).Bloat(300)
				res := modelOPC(tb, scaled, window, t, opc.DefaultModelOpts())
				img := simulate(tb, res.Mask, window, t, litho.Nominal)
				coverage := 0.0
				if drawnArea := geom.AreaOf(scaled); drawnArea > 0 {
					coverage = float64(geom.AreaOf(geom.Intersect(img.PrintedRects(), scaled))) / float64(drawnArea)
				}
				addf(&out, "scale=%.1f printedCoverage=%.3f rmsEPE=%.1f",
					float64(num)/10, coverage, litho.SummarizeEPE(img.MeasureEPE(scaled, 100)).RMS)
			}
			return out
		}
	}},
	// Ablation: model-OPC iteration count, convergence vs runtime.
	{"opc-iters", func(tb testing.TB, t *tech.Tech) func() []string {
		drawn := geom.Normalize([]geom.Rect{
			geom.R(0, 0, 70, 1200), geom.R(140, 0, 210, 1200), geom.R(500, 0, 570, 1200),
		})
		window := geom.BBoxOf(drawn).Bloat(400)
		return func() (out []string) {
			for _, iters := range []int{1, 2, 3, 5, 8} {
				mo := opc.DefaultModelOpts()
				mo.Iterations = iters
				addf(&out, "opc-iters=%d rms=%.2f", iters, finalRMS(modelOPC(tb, drawn, window, t, mo)))
			}
			return out
		}
	}},
	// Ablation: OPC fragment length; finer fragments correct better but
	// cost mask complexity.
	{"frag-len", func(tb testing.TB, t *tech.Tech) func() []string {
		drawn := geom.Normalize([]geom.Rect{geom.R(0, 0, 70, 1500)})
		window := geom.BBoxOf(drawn).Bloat(400)
		return func() (out []string) {
			for _, ml := range []int64{60, 120, 240, 480} {
				mo := opc.DefaultModelOpts()
				mo.MaxLen = ml
				res := modelOPC(tb, drawn, window, t, mo)
				addf(&out, "frag-len=%d rms=%.2f frags=%d", ml, finalRMS(res), len(res.Fragments))
			}
			return out
		}
	}},
	// Ablation: inverse vs model-based OPC on the same target, print
	// fidelity and mask complexity.
	{"ilt-vs-model", func(tb testing.TB, t *tech.Tech) func() []string {
		drawn := geom.Normalize([]geom.Rect{geom.R(0, 0, 70, 1200)})
		window := geom.BBoxOf(drawn).Bloat(350)
		return func() (out []string) {
			row := func(tag string, mask []geom.Rect) {
				img := simulate(tb, mask, window, t, litho.Nominal)
				addf(&out, "%s rms=%.2f shapes=%d", tag, litho.SummarizeEPE(img.MeasureEPE(drawn, 120)).RMS, len(mask))
			}
			row("model-opc", modelOPC(tb, drawn, window, t, opc.DefaultModelOpts()).Mask)
			row("inverse-opc", opc.ILT(drawn, window, t.Optics).Mask)
			return out
		}
	}},
	// Ablation: DRC Plus context radius, separation of hotspot from clean
	// patterns on facing line-end pairs (hot) vs isolated tips (clean).
	{"pattern-radius", func(tb testing.TB, _ *tech.Tech) func() []string {
		var rs []geom.Rect
		var hot, clean []geom.Point
		for i := int64(0); i < 4; i++ {
			x := i * 3000
			rs = append(rs, geom.R(x, 0, x+70, 1000), geom.R(x, 1260, x+70, 2260))
			hot = append(hot, geom.Pt(x, 1000))
		}
		for i := int64(0); i < 4; i++ {
			x := i*3000 + 15000
			rs = append(rs, geom.R(x, 0, x+70, 1000))
			clean = append(clean, geom.Pt(x, 1000))
		}
		return func() (out []string) {
			evals, best := pattern.OptimizeRadius(rs, hot, clean, []int64{100, 150, 200, 300, 400})
			for _, ev := range evals {
				addf(&out, "pattern-radius=%d falseRate=%.2f hotClasses=%d", ev.Radius, ev.FalseRate, ev.HotClasses)
			}
			addf(&out, "pattern-radius chosen=%d", best)
			return out
		}
	}},
	// Ablation: fill analysis window; finer windows equalize harder at
	// more fill cost.
	{"fill-window", func(tb testing.TB, t *tech.Tech) func() []string {
		m1 := layout.ByLayer(flatBlock(tb, t, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 15, MaxFan: 3, Seed: 11}))[tech.Metal1]
		extent := geom.BBoxOf(m1).Bloat(6000)
		return func() (out []string) {
			for _, win := range []int64{2000, 3000, 5000, 8000} {
				tiles := fill.Synthesize(m1, extent, win, win/2)
				after := fill.Analyze(append(append([]geom.Rect{}, m1...), tiles...), extent, win, win/2).Summarize()
				addf(&out, "fill-window=%d tiles=%d sigma=%.4f min=%.3f", win, len(tiles), after.Sigma, after.Min)
			}
			return out
		}
	}},
	// Ablation: nominal-only vs process-window OPC at the defocus corner.
	{"pw-opc", func(tb testing.TB, t *tech.Tech) func() []string {
		drawn := geom.Normalize([]geom.Rect{geom.R(0, 0, 90, 1500)})
		window := geom.BBoxOf(drawn).Bloat(400)
		rmsAt := func(mask []geom.Rect, cond litho.Condition) float64 {
			return litho.SummarizeEPE(simulate(tb, mask, window, t, cond).MeasureEPE(drawn, 120)).RMS
		}
		return func() (out []string) {
			mo := opc.DefaultModelOpts()
			row := func(tag string, mask []geom.Rect) {
				addf(&out, "%s rms@nominal=%.2f rms@f80=%.2f", tag,
					rmsAt(mask, litho.Nominal), rmsAt(mask, litho.Condition{Defocus: 80, Dose: 1}))
			}
			row("nominal-opc:", modelOPC(tb, drawn, window, t, mo).Mask)
			pw, err := opc.ProcessWindowOPC(context.Background(), drawn, window, litho.NewRasterMask(nil, window, t.Optics, 80), mo, opc.StandardPWCorners(80))
			if err != nil {
				tb.Fatal(err)
			}
			row("pw-opc:     ", pw.Mask)
			return out
		}
	}},
}

// BenchmarkExperiment times every experiment of the table as a
// sub-benchmark; nothing prints from the timed loop.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments {
		b.Run(e.id, func(b *testing.B) {
			run := e.prepare(b, tech.N45())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// firstDiff returns where got first departs from want — the block's
// name, the line within it and both lines — or "" when they are equal.
// A "== id" line the two agree on starts the block "experiment id".
func firstDiff(block string, want, got []string) string {
	const end = "<no more lines>"
	want, got = append(want[:len(want):len(want)], end), append(got[:len(got):len(got)], end)
	n := 0
	for i := 0; i < len(want) && i < len(got); i++ {
		if id, ok := strings.CutPrefix(want[i], "== "); ok && want[i] == got[i] {
			block, n = "experiment "+id, 0
			continue
		}
		if n++; want[i] != got[i] {
			return fmt.Sprintf("%s line %d:\n  golden: %s\n  found:  %s", block, n, want[i], got[i])
		}
	}
	return ""
}

func lines(text string) []string { return strings.Split(strings.TrimRight(text, "\n"), "\n") }

func readGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExperimentTables renders every experiment — "== id", then its
// rows — and holds the text to the committed golden file, at the
// precision the rows print.
func TestExperimentTables(t *testing.T) {
	var got strings.Builder
	for _, e := range experiments {
		fmt.Fprintf(&got, "== %s\n%s\n", e.id, strings.Join(e.prepare(t, tech.N45())(), "\n"))
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if d := firstDiff("experiment ids", lines(readGolden(t)), lines(got.String())); d != "" {
		t.Errorf("%s\n(if the move is intended: go test -run TestExperimentTables -update .)", d)
	}
}

// A quotation is a fenced block under a tag naming the experiment whose
// golden rows it repeats.
var quotation = regexp.MustCompile("<!-- golden:([^ ]+) -->\n```\n((?s:.*?))```\n")

// checkQuotes holds every quotation in doc to the golden rows of the
// experiment it names, and wants each experiment in need quoted.
func checkQuotes(name, doc, golden string, need bool) (diffs []string) {
	rows := map[string][]string{}
	for _, section := range strings.Split("\n"+golden, "\n== ")[1:] {
		id, body, _ := strings.Cut(section, "\n")
		rows[id] = lines(body)
	}
	for _, m := range quotation.FindAllStringSubmatch(doc, -1) {
		if d := firstDiff(name+" golden:"+m[1], rows[m[1]], lines(m[2])); d != "" {
			diffs = append(diffs, d)
		}
		delete(rows, m[1])
	}
	for id := range rows {
		if need {
			diffs = append(diffs, fmt.Sprintf("%s has no <!-- golden:%s --> block", name, id))
		}
	}
	return diffs
}

// TestDocsQuoteGolden fails when a quotation in EXPERIMENTS.md or
// README.md differs from the golden rows of its experiment, or when
// EXPERIMENTS.md leaves an experiment unquoted.
func TestDocsQuoteGolden(t *testing.T) {
	for _, name := range []string{"EXPERIMENTS.md", "README.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range checkQuotes(name, string(doc), readGolden(t), name == "EXPERIMENTS.md") {
			t.Error(d)
		}
	}
}

// TestGoldenChecksCatchOneDigit doctors one digit of one row, in a copy
// of the golden file and of a quoting document, and wants each check to
// name the experiment and the line (a row no longer there fails too).
func TestGoldenChecksCatchOneDigit(t *testing.T) {
	golden := readGolden(t)
	const row, doctored = "pitch=200 edges=261 conflicts=81", "pitch=200 edges=261 conflicts=82"
	if d := firstDiff("", lines(strings.Replace(golden, row, doctored, 1)), lines(golden)); !strings.Contains(d, "experiment F5 line 4") {
		t.Errorf("doctored golden: %q, want a difference at experiment F5 line 4", d)
	}
	_, f5, _ := strings.Cut(golden, "== F5\n")
	f5, _, _ = strings.Cut(f5, "== ")
	doc := "prose\n\n<!-- golden:F5 -->\n```\n" + f5 + "```\n\nmore prose\n"
	if diffs := checkQuotes("doc", strings.Replace(doc, row, doctored, 1), golden, false); len(diffs) != 1 || !strings.Contains(diffs[0], "doc golden:F5 line 4") {
		t.Errorf("doctored quotation: %q, want one difference at doc golden:F5 line 4", diffs)
	}
	if diffs := checkQuotes("doc", doc, "== F5\nx\n== T9\ny\n", true); len(diffs) != 2 {
		t.Errorf("quotation of a moved F5 with T9 unquoted: %q, want two findings", diffs)
	}
}
