package experiments

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// mkSeries builds a fraction-valued series from (x, y) pairs with a fixed
// CI half-width.
func mkSeries(name string, half float64, pts ...[2]float64) Series {
	s := Series{Name: name}
	for _, p := range pts {
		s.Points = append(s.Points, Point{
			X:        p[0],
			Fraction: stats.Interval{Mean: p[1], HalfWide: half, Level: 0.95, N: 3},
			Total:    stats.Interval{Mean: p[1] * p[0], HalfWide: half * p[0], Level: 0.95, N: 3},
		})
	}
	return s
}

func allPass(results []ClaimResult) bool {
	for _, r := range results {
		if !r.Pass {
			return false
		}
	}
	return true
}

func TestCheckClaimsUnknownFigure(t *testing.T) {
	res := CheckClaims(&Figure{ID: "something-else"})
	if len(res) != 1 || !res[0].Pass {
		t.Fatalf("unknown figure should be informational: %+v", res)
	}
}

func TestCheckMonotoneDecreasing(t *testing.T) {
	good := &Figure{ID: "fig5", YLabel: "useful work fraction", Series: []Series{
		mkSeries("MTTQ=10s", 0.001, [2]float64{1, 0.97}, [2]float64{4, 0.96}, [2]float64{16, 0.95}),
		mkSeries("MTTQ=0.5s", 0.001, [2]float64{1, 0.99}, [2]float64{4, 0.989}, [2]float64{16, 0.988}),
	}}
	if !allPass(CheckClaims(good)) {
		t.Fatalf("good fig5 failed: %+v", CheckClaims(good))
	}
	bad := &Figure{ID: "fig5", YLabel: "useful work fraction", Series: []Series{
		mkSeries("MTTQ=10s", 0.001, [2]float64{1, 0.90}, [2]float64{4, 0.96}),
		mkSeries("MTTQ=0.5s", 0.001, [2]float64{1, 0.99}, [2]float64{4, 0.989}),
	}}
	if allPass(CheckClaims(bad)) {
		t.Fatal("rising fig5 passed")
	}
}

func TestCheckSeriesOrdered(t *testing.T) {
	fig := &Figure{ID: "fig8", YLabel: "useful work fraction", Series: []Series{
		mkSeries("without correlated failure", 0.002, [2]float64{8192, 0.9}, [2]float64{16384, 0.8}),
		mkSeries("with correlated failure", 0.002, [2]float64{8192, 0.85}, [2]float64{16384, 0.6}),
	}}
	if !allPass(CheckClaims(fig)) {
		t.Fatalf("ordered fig8 failed: %+v", CheckClaims(fig))
	}
	// Flip the ordering beyond noise.
	fig.Series[1] = mkSeries("with correlated failure", 0.002, [2]float64{8192, 0.99})
	if allPass(CheckClaims(fig)) {
		t.Fatal("inverted fig8 passed")
	}
	// Missing series must fail loudly.
	missing := &Figure{ID: "fig8", YLabel: "useful work fraction"}
	res := CheckClaims(missing)
	if allPass(res) || !strings.Contains(res[0].Detail, "missing") {
		t.Fatalf("missing series not flagged: %+v", res)
	}
}

func TestCheckFlat(t *testing.T) {
	flat := &Figure{ID: "fig7", YLabel: "useful work fraction", Series: []Series{
		mkSeries("r=400", 0.01, [2]float64{0, 0.57}, [2]float64{0.2, 0.55}),
	}}
	if !allPass(CheckClaims(flat)) {
		t.Fatal("flat fig7 failed")
	}
	steep := &Figure{ID: "fig7", YLabel: "useful work fraction", Series: []Series{
		mkSeries("r=400", 0.01, [2]float64{0, 0.57}, [2]float64{0.2, 0.30}),
	}}
	if allPass(CheckClaims(steep)) {
		t.Fatal("steep fig7 passed")
	}
}

func TestCheckTimeoutCollapse(t *testing.T) {
	fig := &Figure{ID: "fig6", YLabel: "useful work fraction", Series: []Series{
		mkSeries("no timeout", 0.01, [2]float64{8192, 0.91}),
		mkSeries("timeout=120s", 0.01, [2]float64{8192, 0.90}),
		mkSeries("timeout=20s", 0.01, [2]float64{8192, 0.01}),
	}}
	if !allPass(CheckClaims(fig)) {
		t.Fatalf("good fig6 failed: %+v", CheckClaims(fig))
	}
	// A 120s timeout performing terribly must fail the closeness claim.
	fig.Series[1] = mkSeries("timeout=120s", 0.01, [2]float64{8192, 0.30})
	if allPass(CheckClaims(fig)) {
		t.Fatal("collapsed 120s passed")
	}
}

func TestCheckNoInteriorOptimum(t *testing.T) {
	// Totals are y·x in mkSeries, so pick fractions whose products
	// decrease with the interval: 150, 120, 60.
	fig := &Figure{ID: "fig4b", YLabel: "total useful work", Series: []Series{
		mkSeries("procs=65536", 0.001, [2]float64{15, 10}, [2]float64{30, 4}, [2]float64{60, 1}),
	}}
	if !allPass(CheckClaims(fig)) {
		t.Fatalf("good fig4b failed: %+v", CheckClaims(fig))
	}
	// Interior optimum: totals 150, 600, 60.
	interior := &Figure{ID: "fig4b", YLabel: "total useful work", Series: []Series{
		mkSeries("procs=65536", 0.0001, [2]float64{15, 10}, [2]float64{30, 20}, [2]float64{60, 1}),
	}}
	if allPass(CheckClaims(interior)) {
		t.Fatal("interior optimum passed fig4b")
	}
}

// TestCheckNoInteriorOptimumWideBest pins the slack of the fig4b check:
// the best point is compared with the smallest interval using both points'
// CI half-widths. Here the best (155 ± 10) beats the smallest interval
// (150 ± 1) by less than the combined 11 but by more than the smallest
// interval's own 2, so only a check that counts the best point's CI
// passes it.
func TestCheckNoInteriorOptimumWideBest(t *testing.T) {
	pt := func(x, total, half float64) Point {
		return Point{X: x, Total: stats.Interval{Mean: total, HalfWide: half, Level: 0.95, N: 3}}
	}
	fig := &Figure{ID: "fig4b", YLabel: "total useful work", Series: []Series{{
		Name:   "procs=8192",
		Points: []Point{pt(15, 150, 1), pt(30, 155, 10), pt(60, 60, 1)},
	}}}
	if res := CheckClaims(fig); !allPass(res) {
		t.Fatalf("bump within the combined CIs failed fig4b: %+v", res)
	}
	fig.Series[0].Points[1] = pt(30, 162, 10)
	if allPass(CheckClaims(fig)) {
		t.Fatal("bump beyond the combined CIs passed fig4b")
	}
}

func TestCheckSharpDrop(t *testing.T) {
	// Totals (y·x): 100 → 95 → 60, a small drop then a sharp one.
	fig := &Figure{ID: "fig4f", YLabel: "total useful work", Series: []Series{
		mkSeries("MTTF=1yr", 0.001, [2]float64{15, 100.0 / 15}, [2]float64{30, 95.0 / 30}, [2]float64{60, 1}),
	}}
	if !allPass(CheckClaims(fig)) {
		t.Fatalf("good fig4f failed: %+v", CheckClaims(fig))
	}
	// Flat-then-flat must fail: 100 → 60 → 55.
	dull := &Figure{ID: "fig4f", YLabel: "total useful work", Series: []Series{
		mkSeries("MTTF=1yr", 0.001, [2]float64{15, 100.0 / 15}, [2]float64{30, 2}, [2]float64{60, 55.0 / 60}),
	}}
	if allPass(CheckClaims(dull)) {
		t.Fatal("dull fig4f passed")
	}
}

func TestCheckRecoveryGrows(t *testing.T) {
	fig := &Figure{ID: "xbreakdown", YLabel: "fraction of wall time", Series: []Series{
		mkSeries("recovery", 0.001, [2]float64{8192, 0.02}, [2]float64{262144, 0.2}),
	}}
	if !allPass(CheckClaims(fig)) {
		t.Fatal("growing recovery failed")
	}
	fig.Series[0] = mkSeries("recovery", 0.001, [2]float64{8192, 0.2}, [2]float64{262144, 0.02})
	if allPass(CheckClaims(fig)) {
		t.Fatal("shrinking recovery passed")
	}
}

// TestClaimsAgainstRealFigures runs the checker over real (tiny-budget)
// reproductions of the cheapest figures.
func TestClaimsAgainstRealFigures(t *testing.T) {
	for _, id := range []string{"fig5", "fig8"} {
		def, err := LookupAny(id)
		if err != nil {
			t.Fatal(err)
		}
		fig, err := def.Run(tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range CheckClaims(fig) {
			if !res.Pass {
				t.Errorf("%s: claim %q failed: %s", res.Figure, res.Claim, res.Detail)
			}
		}
	}
}
