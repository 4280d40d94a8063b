package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
	"unicode/utf8"

	"wormmesh"
	"wormmesh/internal/core"
	"wormmesh/internal/fault"
	"wormmesh/internal/report"
	"wormmesh/internal/sim"
	"wormmesh/internal/topology"
)

// liveRepaint is the dashboard refresh period (10 Hz).
const liveRepaint = 100 * time.Millisecond

// liveSparkWidth caps the sparkline strips at a terminal-friendly
// width; longer series are bucket-mean downsampled by report.Sparkline.
const liveSparkWidth = 60

// runLive executes p with a core.WindowSampler attached (windows cycles
// per window, core.DefaultWindowCycles when 0) and repaints a terminal
// dashboard on stderr at 10 Hz while the run executes: sparkline
// strips for throughput, latency and in-flight messages, plus a
// per-node link-congestion map (max busy fraction over the node's
// outgoing links in the latest window). Channel telemetry is switched
// on for the map; like the sampler it is an observer, so the returned
// Result's Stats are bit-identical to a plain run's.
func runLive(p wormmesh.Params, windows int64) (wormmesh.Result, error) {
	if windows <= 0 {
		windows = core.DefaultWindowCycles
	}
	f, err := sim.BuildFaults(p)
	if err != nil {
		return wormmesh.Result{}, err
	}
	s := core.NewWindowSampler(windows, 0)
	p.Sampler = s
	p.Config.ChannelTelemetry = true

	type outcome struct {
		res wormmesh.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sim.RunWithFaults(p, f)
		done <- outcome{res, err}
	}()

	d := &liveDashboard{p: p, faults: f}
	tick := time.NewTicker(liveRepaint)
	defer tick.Stop()
	for {
		select {
		case o := <-done:
			d.poll(s)
			d.paint(os.Stderr, s.Meta())
			return o.res, o.err
		case <-tick.C:
			d.poll(s)
			d.paint(os.Stderr, s.Meta())
		}
	}
}

// liveDashboard accumulates the window series a sampler publishes and
// renders it in place: each paint moves the cursor back over the
// previous frame before writing the next.
type liveDashboard struct {
	p      wormmesh.Params
	faults *fault.Model

	next    int64 // first Seq not yet consumed
	thr     []float64
	lat     []float64
	flight  []float64
	latest  core.WindowSnapshot
	painted int // lines in the previous frame
}

// poll appends every snapshot published since the last poll. Windows
// evicted from the sampler's ring before a poll are skipped; at 10 Hz
// and the default 4096-slot ring that needs a run closing >40 000
// windows per second.
func (d *liveDashboard) poll(s *core.WindowSampler) {
	healthy := d.faults.HealthyCount()
	for _, w := range s.Since(d.next) {
		d.thr = append(d.thr, w.Throughput(healthy))
		d.lat = append(d.lat, w.AvgLatency)
		d.flight = append(d.flight, float64(w.InFlight))
		d.latest = w
		d.next = w.Seq + 1
	}
}

// congestion returns the per-node map: the max busy fraction over the
// node's outgoing links in the latest window, NaN for faulty nodes.
func (d *liveDashboard) congestion() []float64 {
	n := d.p.Width * d.p.Height
	vals := make([]float64, n)
	for id := 0; id < n; id++ {
		if d.faults.IsFaulty(topology.NodeID(id)) {
			vals[id] = math.NaN()
			continue
		}
		peak := uint8(0)
		for dir := topology.Direction(0); dir < topology.NumDirs; dir++ {
			if li := core.LinkID(topology.NodeID(id), dir); li < len(d.latest.LinkBusy) && d.latest.LinkBusy[li] > peak {
				peak = d.latest.LinkBusy[li]
			}
		}
		vals[id] = float64(peak) / 255
	}
	return vals
}

// frame renders one dashboard frame.
func (d *liveDashboard) frame(meta core.SamplerMeta) []byte {
	var b bytes.Buffer
	cycle := d.latest.End
	pct := 0.0
	if meta.TotalCycles > 0 {
		pct = 100 * float64(cycle) / float64(meta.TotalCycles)
	}
	fmt.Fprintf(&b, "live: %dx%d %s %s, rate %g — cycle %d/%d (%.0f%%), %d windows of %d cycles\n",
		d.p.Width, d.p.Height, d.p.Topology, d.p.Algorithm, d.p.Rate,
		cycle, meta.TotalCycles, pct, len(d.thr), meta.WindowCycles)
	strip := func(label string, series []float64, unit string) {
		last := 0.0
		if len(series) > 0 {
			last = series[len(series)-1]
		}
		spark := report.Sparkline(series, liveSparkWidth)
		pad := strings.Repeat(" ", liveSparkWidth-utf8.RuneCountInString(spark))
		fmt.Fprintf(&b, "  %-10s %s%s %.4g %s\n", label, spark, pad, last, unit)
	}
	strip("throughput", d.thr, "flits/node/cycle")
	strip("latency", d.lat, "cycles")
	strip("in-flight", d.flight, "messages")
	wraps := d.p.Topology == "torus"
	hm := report.Heatmap{
		Title:  "link congestion (max outgoing busy fraction, latest window):",
		Width:  d.p.Width,
		Height: d.p.Height,
		Values: d.congestion(),
		WrapX:  wraps,
		WrapY:  wraps,
		Legend: true,
	}
	if err := hm.Write(&b); err != nil {
		fmt.Fprintf(&b, "(%v)\n", err)
	}
	return b.Bytes()
}

// paint writes a frame over the previous one: cursor up past the old
// frame, then each line cleared before it is rewritten.
func (d *liveDashboard) paint(w io.Writer, meta core.SamplerMeta) {
	frame := d.frame(meta)
	var b strings.Builder
	if d.painted > 0 {
		fmt.Fprintf(&b, "\x1b[%dA", d.painted)
	}
	for _, line := range strings.SplitAfter(string(frame), "\n") {
		if line == "" {
			continue
		}
		b.WriteString("\x1b[2K")
		b.WriteString(line)
	}
	d.painted = bytes.Count(frame, []byte("\n"))
	io.WriteString(w, b.String())
}
