package transport

import (
	"math"
	"testing"

	"hypatia/internal/geom"
	"hypatia/internal/sim"
)

func TestPingRTTMatchesPath(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	p := NewPinger(d.net, d.ids, 0, 1, PingConfig{Interval: 10 * sim.Millisecond})
	p.Start()
	d.sim.Run(sim.Second)
	res := p.Results()
	if len(res) != 101 { // t = 0, 10 ms, ..., 1000 ms inclusive
		t.Fatalf("sent %d pings", len(res))
	}
	_, dist := d.topo.Snapshot(0).Path(0, 1)
	propRTT := 2 * dist / geom.SpeedOfLight
	for _, r := range res {
		if !r.Replied {
			continue
		}
		rtt := r.RTT.Seconds()
		// Propagation plus six 64-byte serializations (3 hops each way).
		if rtt < propRTT || rtt > propRTT+0.005 {
			t.Fatalf("ping %d RTT %v, want near %v", r.Seq, rtt, propRTT)
		}
	}
	// The last pings may not return before the run ends (the paper notes
	// the same artifact); none before that may be lost.
	if p.LossCount() > 3 {
		t.Errorf("%d pings lost on an idle path", p.LossCount())
	}
	for _, r := range res[:len(res)-3] {
		if !r.Replied {
			t.Fatalf("mid-run ping %d lost", r.Seq)
		}
	}
}

func TestPingIntervalSpacing(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	p := NewPinger(d.net, d.ids, 0, 1, PingConfig{Interval: 5 * sim.Millisecond})
	p.Start()
	d.sim.Run(100 * sim.Millisecond)
	res := p.Results()
	for i := 1; i < len(res); i++ {
		if gap := res[i].SentAt - res[i-1].SentAt; gap != 5*sim.Millisecond {
			t.Fatalf("ping gap = %v", gap)
		}
	}
}

func TestPingToUnreachableAllLost(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	p := NewPinger(d.net, d.ids, 0, 2, PingConfig{Interval: 50 * sim.Millisecond})
	p.Start()
	d.sim.Run(sim.Second)
	if p.LossCount() != len(p.Results()) {
		t.Errorf("lost %d of %d pings to unreachable GS", p.LossCount(), len(p.Results()))
	}
	if s := p.RTTSeries(); s.Len() != 0 {
		t.Errorf("RTT series has %d samples for black-holed pings", s.Len())
	}
}

func TestPingTracksPathChange(t *testing.T) {
	// When SatB climbs at t=2 s the measured RTT must step up accordingly.
	after := satAbove(20, 15, 1790e3)
	d := newDumbbell(t, sim.DefaultConfig(), after, 2)
	p := NewPinger(d.net, d.ids, 0, 1, PingConfig{Interval: 10 * sim.Millisecond})
	p.Start()
	d.sim.Run(4 * sim.Second)
	var early, late []float64
	for _, r := range p.Results() {
		if !r.Replied {
			continue
		}
		if r.SentAt < 1500*sim.Millisecond {
			early = append(early, r.RTT.Seconds())
		} else if r.SentAt > 2500*sim.Millisecond {
			late = append(late, r.RTT.Seconds())
		}
	}
	if len(early) == 0 || len(late) == 0 {
		t.Fatal("missing samples")
	}
	meanE, meanL := mean(early), mean(late)
	if meanL < meanE+0.01 {
		t.Errorf("RTT did not rise after path change: %v -> %v", meanE, meanL)
	}
}

func TestPingDefaults(t *testing.T) {
	cfg := PingConfig{}.withDefaults()
	if cfg.Interval != sim.Millisecond || cfg.Size != 64 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestPingStartTwicePanics(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	p := NewPinger(d.net, d.ids, 0, 1, PingConfig{})
	p.Start()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	p.Start()
}

func TestPingStop(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	p := NewPinger(d.net, d.ids, 0, 1, PingConfig{Interval: 10 * sim.Millisecond})
	p.Start()
	d.sim.Schedule(100*sim.Millisecond, p.Stop)
	d.sim.Run(sim.Second)
	if n := len(p.Results()); n < 10 || n > 12 {
		t.Errorf("pings after stop: %d", n)
	}
}

// TestPingStopStartKeepsRate restarts a pinger before the firing its Stop left
// pending has run: that firing must not revive the old request chain beside
// the new one (the stream would run at twice its rate from then on).
func TestPingStopStartKeepsRate(t *testing.T) {
	const horizon = sim.Second
	sentBy := func(restart bool) int {
		d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
		p := NewPinger(d.net, d.ids, 0, 1, PingConfig{Interval: 10 * sim.Millisecond})
		p.Start() // next request at 10 ms
		if restart {
			d.sim.Schedule(4*sim.Millisecond, p.Stop)
			d.sim.Schedule(5*sim.Millisecond, p.Start)
		}
		d.sim.Run(horizon)
		if lost := p.LossCount(); lost > 3 {
			t.Errorf("restart=%v: %d of %d pings unanswered", restart, lost, len(p.Results()))
		}
		return len(p.Results())
	}
	single, restarted := sentBy(false), sentBy(true)
	if single < 100 {
		t.Fatalf("single chain sent only %d pings in %v at 10 ms", single, horizon)
	}
	// The restart itself sends one request early (at 5 ms).
	if diff := restarted - single; diff < 0 || diff > 1 {
		t.Errorf("sent %d pings after a quick Stop/Start, %d without: two request chains alive", restarted, single)
	}
}

func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return total / float64(len(xs))
}
