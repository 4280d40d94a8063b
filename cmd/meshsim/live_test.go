package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wormmesh"
	"wormmesh/internal/core"
	"wormmesh/internal/sim"
)

func liveParams() wormmesh.Params {
	p := wormmesh.DefaultParams()
	p.Width, p.Height = 6, 6
	p.Algorithm = "Nbc"
	p.Faults = 2
	p.Rate = 0.002
	p.MessageLength = 20
	p.WarmupCycles = 200
	p.MeasureCycles = 1000
	return p
}

// The dashboard is an observer: a live run's Stats are bit-identical
// to a plain run's.
func TestRunLiveMatchesPlainRun(t *testing.T) {
	p := liveParams()
	want, err := wormmesh.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runLive(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Error("live run Stats differ from a plain run's")
	}
}

// A frame carries the three sparkline strips and the congestion map,
// with faulty nodes marked, and repaints over exactly the lines of the
// previous frame.
func TestLiveDashboardFrame(t *testing.T) {
	p := liveParams()
	f, err := sim.BuildFaults(p)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewWindowSampler(100, 0)
	p.Sampler = s
	p.Config.ChannelTelemetry = true
	if _, err := sim.RunWithFaults(p, f); err != nil {
		t.Fatal(err)
	}
	d := &liveDashboard{p: p, faults: f}
	d.poll(s)
	if len(d.thr) != 12 {
		t.Fatalf("polled %d windows, want 12", len(d.thr))
	}
	frame := string(d.frame(s.Meta()))
	for _, want := range []string{"throughput", "latency", "in-flight", "link congestion", "cycle 1200/1200", "X = faulty"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}
	var out strings.Builder
	d.paint(&out, s.Meta())
	d.paint(&out, s.Meta())
	lines := strings.Count(frame, "\n")
	if !strings.Contains(out.String(), fmt.Sprintf("\x1b[%dA", lines)) {
		t.Errorf("second paint does not move up %d lines", lines)
	}
}
