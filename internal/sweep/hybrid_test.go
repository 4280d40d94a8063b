package sweep

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"wormmesh/internal/analytic"
	"wormmesh/internal/sim"
)

// hybridBase is the quick-scale cell the hybrid tests sweep: an 8×8
// mesh with short messages so a full grid stays in test time.
func hybridBase(alg string, vcs, faults int) sim.Params {
	p := sim.DefaultParams()
	p.Width, p.Height = 8, 8
	p.Algorithm = alg
	p.MessageLength = 20
	p.WarmupCycles = 1000
	p.MeasureCycles = 4000
	p.Faults = faults
	p.FaultSeed = 7
	p.Config.NumVCs = vcs
	return p
}

// kneeGrid builds a geometric rate axis spanning a quarter to four
// times the surrogate's knee — a fig1-style load sweep centered so
// both the flat region and the plateau are on the grid.
func kneeGrid(t *testing.T, base sim.Params) []float64 {
	t.Helper()
	mo, err := Surrogate(base)
	if err != nil {
		t.Fatal(err)
	}
	knee := mo.SaturationRate()
	var rates []float64
	for r := knee / 4; r < knee*4; r *= 1.35 {
		rates = append(rates, r)
	}
	return rates
}

func TestHybridSupported(t *testing.T) {
	p := hybridBase("Minimal-Adaptive", 12, 2)
	if err := HybridSupported(p); err != nil {
		t.Errorf("faulted mesh Minimal-Adaptive: %v", err)
	}
	p.Topology = "torus"
	if err := HybridSupported(p); !errors.Is(err, analytic.ErrUnsupported) {
		t.Errorf("torus: err = %v, want ErrUnsupported", err)
	}
	p = hybridBase("Boura-FT", 12, 2)
	if err := HybridSupported(p); !errors.Is(err, analytic.ErrUnsupported) {
		t.Errorf("Boura-FT with faults: err = %v, want ErrUnsupported", err)
	}
	// Fault-free Boura-FT needs no route loads: the cut model covers it.
	p.Faults = 0
	if err := HybridSupported(p); err != nil {
		t.Errorf("fault-free Boura-FT: %v", err)
	}
}

func TestHybridSweepRejectsBadCurves(t *testing.T) {
	base := hybridBase("Minimal-Adaptive", 12, 0)
	if _, err := HybridSweep([]HybridCurve{{Key: "x", Base: base}}, HybridOptions{}); err == nil {
		t.Error("empty rate axis accepted")
	}
	if _, err := HybridSweep([]HybridCurve{{Key: "x", Base: base, Rates: []float64{0.01, 0.005}}}, HybridOptions{}); err == nil {
		t.Error("descending rate axis accepted")
	}
}

// TestHybridMatchesFullSweep is the reuse-transparency guarantee at
// the hybrid level: the cells the hybrid chooses to simulate must be
// bit-identical to the same cells in a full sweep, even though the
// worker pools batch different point sets onto reused Runners.
func TestHybridMatchesFullSweep(t *testing.T) {
	base := hybridBase("Minimal-Adaptive", 12, 2)
	rates := kneeGrid(t, base)

	var points []Point
	for _, r := range rates {
		p := base
		p.Rate = r
		points = append(points, Point{Key: fmt.Sprintf("full@%g", r), Params: p})
	}
	full := Run(points, 3, nil)
	if err := FirstError(full); err != nil {
		t.Fatal(err)
	}
	fullByRate := map[float64]sim.Result{}
	for i, out := range full {
		fullByRate[rates[i]] = out.Result
	}

	res, err := HybridSweep([]HybridCurve{{Key: "ma", Base: base, Rates: rates}}, HybridOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d curve results, want 1", len(res))
	}
	hc := res[0]
	if len(hc.Points) != len(rates) {
		t.Fatalf("got %d points, want %d", len(hc.Points), len(rates))
	}
	if hc.Simulated == 0 || hc.Simulated > len(rates)/2 {
		t.Errorf("simulated %d of %d points, want a small bracket", hc.Simulated, len(rates))
	}
	for i, hp := range hc.Points {
		if hp.Rate != rates[i] {
			t.Fatalf("point %d rate %g, want %g", i, hp.Rate, rates[i])
		}
		switch hp.Source {
		case SourceSimulated:
			want := fullByRate[hp.Rate]
			if !reflect.DeepEqual(hp.Result.Stats, want.Stats) {
				t.Errorf("rate %g: hybrid Stats differ from full sweep", hp.Rate)
			}
			if hp.Latency != want.Stats.AvgLatency() || hp.Accepted != want.Stats.Throughput() {
				t.Errorf("rate %g: derived fields diverge from Stats", hp.Rate)
			}
		case SourceModel:
			if math.IsNaN(hp.Latency) || hp.Latency <= 0 {
				t.Errorf("rate %g: model fill latency %v", hp.Rate, hp.Latency)
			}
			if hp.Accepted <= 0 || hp.Normalized <= 0 {
				t.Errorf("rate %g: model fill throughput %v / %v", hp.Rate, hp.Accepted, hp.Normalized)
			}
		default:
			t.Errorf("rate %g: unknown provenance %q", hp.Rate, hp.Source)
		}
	}
	if hc.Gamma <= 0 {
		t.Errorf("gamma %v not fitted", hc.Gamma)
	}
	if hc.BracketLo <= 0 || hc.BracketHi < hc.BracketLo {
		t.Errorf("bracket [%g, %g] malformed", hc.BracketLo, hc.BracketHi)
	}
}

// TestHybridBracketContainsKnee is the bracket-correctness property:
// across an {algorithm, fault scenario, VC count} grid, the rate
// window the hybrid chose to simulate must contain the knee of the
// fully simulated latency curve. The measured knee is the half-rise
// point — the first rate whose latency crosses the geometric mean of
// the curve's floor (lowest-rate latency) and plateau (maximum) — the
// standard midpoint of a saturating curve's transition on log axes.
func TestHybridBracketContainsKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed property test")
	}
	combos := []struct {
		alg    string
		vcs    int
		faults int
	}{
		{"Minimal-Adaptive", 12, 0},
		{"Minimal-Adaptive", 12, 2},
		{"Duato", 12, 0},
		{"Duato", 18, 2},
		{"Nbc", 18, 2},
	}
	for _, c := range combos {
		name := fmt.Sprintf("%s/vc%d/f%d", c.alg, c.vcs, c.faults)
		base := hybridBase(c.alg, c.vcs, c.faults)
		rates := kneeGrid(t, base)

		var points []Point
		for _, r := range rates {
			p := base
			p.Rate = r
			points = append(points, Point{Key: fmt.Sprintf("%s@%g", name, r), Params: p})
		}
		full := Run(points, 0, nil)
		if err := FirstError(full); err != nil {
			t.Fatal(err)
		}
		floor := full[0].Result.Stats.AvgLatency()
		plateau := floor
		for _, out := range full {
			if l := out.Result.Stats.AvgLatency(); l > plateau {
				plateau = l
			}
		}
		threshold := math.Sqrt(floor * plateau)
		measured := 0.0
		for i, out := range full {
			if out.Result.Stats.AvgLatency() >= threshold {
				measured = rates[i]
				break
			}
		}
		if measured == 0 {
			t.Fatalf("%s: latency curve never crossed its half-rise point", name)
		}

		res, err := HybridSweep([]HybridCurve{{Key: name, Base: base, Rates: rates}}, HybridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hc := res[0]
		if measured < hc.BracketLo || measured > hc.BracketHi {
			t.Errorf("%s: measured knee %.5f outside simulated bracket [%.5f, %.5f] (model knee %.5f)",
				name, measured, hc.BracketLo, hc.BracketHi, hc.Knee)
		}
	}
}

// TestHybridSweepWorkerCountInvariant: surrogates are built and cells
// simulated on a worker pool, and the outcome must not depend on its
// size. Elapsed is the only wall-clock field and is cleared first.
func TestHybridSweepWorkerCountInvariant(t *testing.T) {
	var curves []HybridCurve
	for i, alg := range []string{"Nbc", "Duato-Nbc", "PHop", "Minimal-Adaptive"} {
		base := hybridBase(alg, 24, 3)
		base.Width, base.Height = 6, 6
		base.WarmupCycles, base.MeasureCycles = 300, 1200
		base.FaultSeed = int64(i + 1)
		curves = append(curves, HybridCurve{Key: alg, Base: base, Rates: kneeGrid(t, base)})
	}
	run := func(workers int) []HybridCurveResult {
		res, err := HybridSweep(curves, HybridOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, hc := range res {
			for i := range hc.Points {
				hc.Points[i].Result.Elapsed = 0
			}
		}
		return res
	}
	if one, four := run(1), run(4); !reflect.DeepEqual(one, four) {
		t.Error("HybridSweep results differ between 1 and 4 workers")
	}
}

// TestHybridSweepFirstBadCurveInOrder: with several invalid curves the
// error names the first in input order, whichever worker finished
// first.
func TestHybridSweepFirstBadCurveInOrder(t *testing.T) {
	good := hybridBase("Minimal-Adaptive", 12, 0)
	unsupported := hybridBase("Boura-FT", 12, 2)
	curves := []HybridCurve{
		{Key: "good", Base: good, Rates: []float64{0.001, 0.002}},
		{Key: "first", Base: unsupported, Rates: []float64{0.001}},
		{Key: "second", Base: good},
		{Key: "third", Base: good, Rates: []float64{0.01, 0.005}},
	}
	for _, workers := range []int{1, 2, 4} {
		for rep := 0; rep < 5; rep++ {
			_, err := HybridSweep(curves, HybridOptions{Workers: workers})
			if !errors.Is(err, analytic.ErrUnsupported) || !strings.Contains(err.Error(), `"first"`) {
				t.Fatalf("workers=%d: err = %v, want curve \"first\"'s ErrUnsupported", workers, err)
			}
		}
	}
}
