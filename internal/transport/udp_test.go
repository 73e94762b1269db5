package transport

import (
	"math"
	"testing"

	"hypatia/internal/geom"
	"hypatia/internal/sim"
)

func TestUDPPacedRateBelowLine(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{RateBps: 5e6})
	f.Start()
	d.sim.Run(10 * sim.Second)
	// At half the line rate nothing drops; goodput = rate * payload/wire.
	want := 5e6 * 1472 / 1500
	got := f.GoodputBps(10 * sim.Second)
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("goodput = %.3f Mb/s, want %.3f", got/1e6, want/1e6)
	}
	if d.net.Drops(sim.DropQueue) != 0 {
		t.Errorf("unexpected drops: %d", d.net.Drops(sim.DropQueue))
	}
}

func TestUDPAtLineRateSaturates(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{RateBps: 10e6})
	f.Start()
	d.sim.Run(10 * sim.Second)
	want := 10e6 * 1472 / 1500
	got := f.GoodputBps(10 * sim.Second)
	if got < 0.95*want || got > 1.01*want {
		t.Errorf("goodput = %.3f Mb/s, want ~%.3f", got/1e6, want/1e6)
	}
}

func TestUDPOverloadCapsAtLineRate(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{RateBps: 20e6}) // 2x line
	f.Start()
	d.sim.Run(10 * sim.Second)
	lineGoodput := 10e6 * 1472 / 1500.0
	got := f.GoodputBps(10 * sim.Second)
	if got > lineGoodput*1.01 {
		t.Errorf("goodput %.3f Mb/s exceeds line capacity", got/1e6)
	}
	if got < lineGoodput*0.9 {
		t.Errorf("goodput %.3f Mb/s far below line capacity", got/1e6)
	}
	if d.net.Drops(sim.DropQueue) == 0 {
		t.Error("no queue drops at 2x overload")
	}
}

func TestUDPStop(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{RateBps: 1e6})
	f.Start()
	d.sim.Schedule(sim.Second, f.Stop)
	d.sim.Run(10 * sim.Second)
	sentAtStop := f.Sent()
	d.sim.Run(20 * sim.Second)
	if f.Sent() != sentAtStop {
		t.Error("sender kept transmitting after Stop")
	}
	// ~85 packets/s at 1 Mb/s with 1500 B wire packets for 1 s.
	if sentAtStop < 80 || sentAtStop > 90 {
		t.Errorf("sent %d packets in 1 s at 1 Mb/s", sentAtStop)
	}
}

func TestUDPRequiresRate(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero rate")
		}
	}()
	NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{})
}

// TestUDPRejectsStationOutOfRange: a flow between stations that do not exist
// fails when it is built, not when its first packet lands on a satellite.
func TestUDPRejectsStationOutOfRange(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	defer func() {
		want := "sim: Clock: ground station -1 outside [0, 3)"
		if got := recover(); got != want {
			t.Errorf("panic %v, want %q", got, want)
		}
	}()
	NewUDPFlow(d.net, d.ids, -1, 1, UDPConfig{RateBps: 1e6})
}

func TestUDPStartTwicePanics(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{RateBps: 1e6})
	f.Start()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	f.Start()
}

func TestSeriesWindowed(t *testing.T) {
	var s Series
	s.Add(100*sim.Millisecond, 10)
	s.Add(150*sim.Millisecond, 5)
	s.Add(1100*sim.Millisecond, 7)
	w := s.Windowed(sim.Second, 2*sim.Second)
	if len(w) != 2 {
		t.Fatalf("windows = %d", len(w))
	}
	if w[0].V != 15 || w[1].V != 7 {
		t.Errorf("windowed = %+v", w)
	}
	if w[1].T != sim.Second {
		t.Errorf("window time = %v", w[1].T)
	}
}

func TestSeriesWindowedPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	(&Series{}).Windowed(0, sim.Second)
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{5, 1, 9, 3} {
		s.Add(sim.Time(i), v)
	}
	if s.Min() != 1 || s.Max() != 9 || s.Last() != 3 || s.Len() != 4 {
		t.Errorf("stats: min=%v max=%v last=%v len=%d", s.Min(), s.Max(), s.Last(), s.Len())
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(1); got != 9 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	empty := &Series{}
	if empty.Last() != 0 || empty.Percentile(0.5) != 0 {
		t.Error("empty series stats")
	}
	if !math.IsInf(empty.Min(), 1) || !math.IsInf(empty.Max(), -1) {
		t.Error("empty series min/max")
	}
}

func TestFlowIDsUnique(t *testing.T) {
	ids := &FlowIDs{}
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		id := ids.Next()
		if id == 0 {
			t.Fatal("flow id 0 issued")
		}
		if seen[id] {
			t.Fatal("duplicate flow id")
		}
		seen[id] = true
	}
}

// TestUDPStopStartKeepsRate restarts a flow before the pacing timer its Stop
// left pending has fired: that stale firing must not revive the old chain
// beside the new one (the flow would send at twice its rate from then on).
func TestUDPStopStartKeepsRate(t *testing.T) {
	const rate, horizon = 100e6, 100 * sim.Millisecond
	cfg := sim.DefaultConfig()
	cfg.ISLRateBps, cfg.GSLRateBps = rate, rate
	sentBy := func(restart bool) int64 {
		d := newDumbbell(t, cfg, geom.Vec3{}, 0)
		f := NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{RateBps: rate})
		f.Start() // next firing at 120 us
		if restart {
			d.sim.Schedule(50*sim.Microsecond, f.Stop)
			d.sim.Schedule(60*sim.Microsecond, f.Start)
		}
		d.sim.Run(horizon)
		return f.Sent()
	}
	single, restarted := sentBy(false), sentBy(true)
	if single < 800 {
		t.Fatalf("single chain sent only %d packets in %v at 100 Mbit/s", single, horizon)
	}
	// The restart itself sends one packet early (at 60 us).
	if diff := restarted - single; diff < 0 || diff > 1 {
		t.Errorf("sent %d packets after a quick Stop/Start, %d without: two pacing chains alive", restarted, single)
	}
}
