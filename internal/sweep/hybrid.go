package sweep

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"wormmesh/internal/analytic"
	"wormmesh/internal/routing"
	"wormmesh/internal/sim"
)

// Point provenance values recorded per hybrid sweep cell.
const (
	// SourceSimulated marks a cell whose numbers come from a flit-level
	// simulation, bit-identical to a full sweep of the same Params.
	SourceSimulated = "simulated"
	// SourceModel marks a cell filled by the calibrated analytic
	// surrogate (stable region) or the simulated plateau (beyond it).
	SourceModel = "model"
)

// HybridCurve is one load curve of a hybrid sweep: a key, the shared
// simulation parameters, and the ascending rate axis. Base.Rate is
// overridden per point.
type HybridCurve struct {
	Key   string
	Base  sim.Params
	Rates []float64
}

// HybridOptions tunes HybridSweep.
type HybridOptions struct {
	// Workers for the surrogate builds and the simulated batch (0 =
	// NumCPU, as Run).
	Workers int
	// BracketRadius widens the simulated window around the surrogate's
	// predicted knee k: grid rates in [k/BracketRadius, k·BracketRadius]
	// are simulated (plus the two rates straddling k, always). Default
	// 1.3; larger values trade speed for a safer bracket.
	BracketRadius float64
	// Progress receives completed/total counts for the simulated batch.
	Progress func(done, total int)
	// Metrics, when non-nil, receives the batch lifecycle. Start is
	// called with the simulated-cell count — not the full grid — so the
	// published ETA extrapolates over the cells that actually run
	// instead of overestimating by the model-filled fraction.
	Metrics ProgressSink
	// Cache, when non-nil, answers simulated cells without running them
	// and files fresh results for the next sweep.
	Cache Cache
}

// HybridPoint is one cell of a hybrid curve.
type HybridPoint struct {
	Rate   float64
	Source string // SourceSimulated or SourceModel
	// Result holds the full simulation outcome for simulated cells
	// (zero value for model cells).
	Result     sim.Result
	Latency    float64 // cycles
	Accepted   float64 // flits/node/cycle
	Normalized float64 // fraction of bisection capacity
}

// HybridCurveResult is one curve's outcome.
type HybridCurveResult struct {
	Key string
	// Gamma is the fitted contention gain (1 when calibration was not
	// possible); Knee the surrogate's predicted saturation rate.
	Gamma float64
	Knee  float64
	// BracketLo/Hi bound the simulated rates: the knee bracket the
	// simulator was scheduled into.
	BracketLo, BracketHi float64
	Points               []HybridPoint
	Simulated            int
}

// HybridSupported reports whether the analytic surrogate models the
// given cell, with an error explaining any rejection: callers gate
// hybrid modes on it instead of silently falling back to simulation.
func HybridSupported(p sim.Params) error {
	if p.Topology != "" && p.Topology != "mesh" {
		return fmt.Errorf("%w: hybrid sweeps model meshes only, not %q", analytic.ErrUnsupported, p.Topology)
	}
	if (p.Faults > 0 || p.FaultNodes != nil) && !routing.LoadsSupported(p.Algorithm) {
		return fmt.Errorf("%w: %s routes around faults outside the BC fortification", analytic.ErrUnsupported, p.Algorithm)
	}
	return nil
}

// Surrogate builds the analytic model matching one cell's parameters
// (topology, message length, VC budget, fault pattern): the model a
// hybrid sweep screens that cell's load axis with. Unsupported cells
// return an error satisfying errors.Is(err, analytic.ErrUnsupported).
func Surrogate(p sim.Params) (analytic.Model, error) {
	if err := HybridSupported(p); err != nil {
		return analytic.Model{}, err
	}
	f, err := sim.BuildFaults(p)
	if err != nil {
		return analytic.Model{}, err
	}
	cfg := p.Config
	if cfg.NumVCs == 0 {
		cfg = sim.DefaultEngineConfig()
	}
	mo := analytic.Default()
	mo.Topo = f.Topo
	mo.MessageLength = p.MessageLength
	// The BC fortification reserves four ring VCs; the rest is the
	// free pool the model's occupancy term sees.
	mo.VirtualChannels = cfg.NumVCs - 4
	if mo.VirtualChannels < 1 {
		mo.VirtualChannels = 1
	}
	if cfg.EjectBW > 0 {
		mo.EjectBandwidth = float64(cfg.EjectBW)
	}
	if f.FaultCount() > 0 {
		return mo.WithFaults(p.Algorithm, f, cfg.NumVCs)
	}
	return mo, nil
}

// hybridPlan is one curve's screening outcome: its surrogate, the
// predicted knee and the set of rates scheduled for simulation.
type hybridPlan struct {
	curve HybridCurve
	model analytic.Model
	knee  float64
	sim   map[float64]bool
}

// planHybridCurve validates one curve, builds its surrogate and picks
// the rates to simulate: those within [knee/radius, knee·radius] plus
// the pair straddling the knee.
func planHybridCurve(c HybridCurve, radius float64) (hybridPlan, error) {
	if len(c.Rates) == 0 {
		return hybridPlan{}, fmt.Errorf("sweep: hybrid curve %q has no rates", c.Key)
	}
	if !sort.Float64sAreSorted(c.Rates) {
		return hybridPlan{}, fmt.Errorf("sweep: hybrid curve %q rates not ascending", c.Key)
	}
	model, err := Surrogate(c.Base)
	if err != nil {
		return hybridPlan{}, fmt.Errorf("sweep: curve %q: %w", c.Key, err)
	}
	knee := model.SaturationRate()
	simSet := map[float64]bool{}
	var below, above float64
	haveBelow, haveAbove := false, false
	for _, r := range c.Rates {
		if r >= knee/radius && r <= knee*radius {
			simSet[r] = true
		}
		if r < knee {
			below, haveBelow = r, true
		} else if !haveAbove {
			above, haveAbove = r, true
		}
	}
	// Always simulate the straddle pair so the measured knee cannot
	// slip between two model-filled cells.
	if haveBelow {
		simSet[below] = true
	}
	if haveAbove {
		simSet[above] = true
	}
	if len(simSet) == 0 {
		// Knee outside the whole grid; anchor on the nearest end.
		simSet[c.Rates[0]] = true
	}
	return hybridPlan{curve: c, model: model, knee: knee, sim: simSet}, nil
}

// HybridSweep runs an analytic-guided load sweep: per curve the
// surrogate screens the rate axis in microseconds, predicts the
// saturation knee, and schedules flit-level simulation only for the
// rates bracketing it (plus the straddle pair). The simulated cells go
// through the same Run worker pool as a full sweep — each worker owns
// one Runner whose reuse is observably transparent — so their Stats
// are bit-identical to the full sweep's. Stable-region cells outside
// the bracket are filled by the surrogate after a single-γ calibration
// at the lowest simulated stable rate; cells beyond the bracket carry
// the highest simulated point's plateau. Every point records its
// provenance in Source. The per-curve surrogates are built
// concurrently on the same worker count; the result (and, when several
// curves are invalid, the error of the first in input order) is the
// same for every worker count.
func HybridSweep(curves []HybridCurve, opt HybridOptions) ([]HybridCurveResult, error) {
	radius := opt.BracketRadius
	if radius <= 1 {
		radius = 1.3
	}
	// Each plan is a pure function of its curve, written to its own
	// slot, so scheduling cannot change the plans or which error wins.
	plans := make([]hybridPlan, len(curves))
	errs := make([]error, len(curves))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(curves) {
		workers = len(curves)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(curves) {
					return
				}
				plans[i], errs[i] = planHybridCurve(curves[i], radius)
			}
		}()
	}
	wg.Wait()
	var points []Point
	for i, pl := range plans {
		if errs[i] != nil {
			return nil, errs[i]
		}
		c := pl.curve
		for _, r := range c.Rates {
			if pl.sim[r] {
				p := c.Base
				p.Rate = r
				points = append(points, Point{Key: fmt.Sprintf("%s@%g", c.Key, r), Params: p})
			}
		}
	}

	progress := opt.Progress
	if opt.Metrics != nil {
		opt.Metrics.Start(len(points))
		user := opt.Progress
		progress = func(done, total int) {
			opt.Metrics.Progress(done, total)
			if user != nil {
				user(done, total)
			}
		}
	}
	outcomes := RunCached(points, opt.Workers, progress, opt.Cache)
	if opt.Metrics != nil {
		opt.Metrics.Finish()
	}
	if err := FirstError(outcomes); err != nil {
		return nil, err
	}
	byKey := make(map[string]Outcome, len(outcomes))
	for _, out := range outcomes {
		byKey[out.Point.Key] = out
	}

	results := make([]HybridCurveResult, 0, len(plans))
	for _, pl := range plans {
		res := HybridCurveResult{
			Key:   pl.curve.Key,
			Gamma: 1,
			Knee:  pl.knee,
		}
		// Calibrate γ at the lowest simulated rate the model can still
		// predict: just below the knee the contention delta is large,
		// so the single-point fit is well conditioned.
		cal := pl.model
		for _, r := range pl.curve.Rates {
			if !pl.sim[r] {
				continue
			}
			out := byKey[fmt.Sprintf("%s@%g", pl.curve.Key, r)]
			if _, err := pl.model.Predict(r); err != nil {
				break // this and later rates are model-saturated
			}
			if c, err := pl.model.Calibrate(r, out.Result.Stats.AvgLatency()); err == nil {
				cal = c
				res.Gamma = c.ContentionGain
			}
			break
		}

		var lastSim *HybridPoint
		for _, r := range pl.curve.Rates {
			if pl.sim[r] {
				out := byKey[fmt.Sprintf("%s@%g", pl.curve.Key, r)]
				hp := HybridPoint{
					Rate:       r,
					Source:     SourceSimulated,
					Result:     out.Result,
					Latency:    out.Result.Stats.AvgLatency(),
					Accepted:   out.Result.Stats.Throughput(),
					Normalized: out.Result.NormalizedThroughput(),
				}
				res.Points = append(res.Points, hp)
				res.Simulated++
				if res.BracketLo == 0 || r < res.BracketLo {
					res.BracketLo = r
				}
				if r > res.BracketHi {
					res.BracketHi = r
				}
				lastSim = &res.Points[len(res.Points)-1]
				continue
			}
			hp := HybridPoint{Rate: r, Source: SourceModel}
			if pred, err := cal.Predict(r); err == nil && r < pl.knee {
				// Stable region: all offered traffic is accepted.
				hp.Latency = pred.Latency
				hp.Accepted = r * float64(pl.curve.Base.MessageLength)
				hp.Normalized = hp.Accepted / meshCapacity(pl.curve.Base)
			} else if lastSim != nil {
				// Past the bracket: the curve has flattened; carry the
				// highest simulated plateau.
				hp.Latency = lastSim.Latency
				hp.Accepted = lastSim.Accepted
				hp.Normalized = lastSim.Normalized
			} else {
				hp.Latency = math.NaN()
			}
			res.Points = append(res.Points, hp)
		}
		results = append(results, res)
	}
	return results, nil
}

// meshCapacity mirrors sim.Result.NormalizedThroughput's denominator
// for model-filled points.
func meshCapacity(p sim.Params) float64 {
	minDim := p.Width
	if p.Height < minDim {
		minDim = p.Height
	}
	return 4 * float64(minDim) / float64(p.Width*p.Height)
}
