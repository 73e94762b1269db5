package transport

import (
	"runtime"
	"testing"

	"hypatia/internal/check"
	"hypatia/internal/check/checktest"
	"hypatia/internal/geom"
	"hypatia/internal/sim"
)

// TestAllocGuardUDPSteadyState pins the UDP send → deliver loop at zero heap
// allocations: Send reuses the records of delivered packets, no payload is
// boxed, the pacing timer reschedules one cached func value, and the sink
// only counts. Each measured run is 10 virtual ms at line rate (~83 packets
// sent and as many delivered).
func TestAllocGuardUDPSteadyState(t *testing.T) {
	const rate = 100e6
	cfg := sim.DefaultConfig()
	cfg.ISLRateBps, cfg.GSLRateBps = rate, rate
	d := newDumbbell(t, cfg, geom.Vec3{}, 0)
	f := NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{RateBps: rate})
	f.Start()
	d.sim.Run(100 * sim.Millisecond)
	if f.ReceivedPayloadBytes == 0 {
		t.Fatal("nothing delivered during warm-up")
	}
	before := f.ReceivedPayloadBytes
	checktest.AllocGuard(t, "UDP send/deliver loop", 0, 1, func() {
		d.sim.Run(d.sim.Now() + 10*sim.Millisecond)
	})
	if f.ReceivedPayloadBytes == before {
		t.Error("nothing delivered during the measured runs")
	}
}

// TestAllocGuardTCPSteadyState pins a bulk NewReno transfer in steady state
// — data segments, ACKs, the scoreboard ring sliding, RTT samples, the
// retransmission and delayed-ACK timers — at zero allocations per 10 virtual
// ms (~8 segments and ~4 ACKs at the dumbbell's 10 Mbit/s). The header words
// ride in the packet, so no segment or ACK boxes anything, and a default flow
// records no per-packet log (RecordLogs is off); the warm-up takes the flow
// through its slow-start overshoot and recovery, so the scoreboard has grown
// to its span.
func TestAllocGuardTCPSteadyState(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{})
	f.Start()
	d.sim.Run(10 * sim.Second)
	if f.FastRetxCount == 0 {
		t.Fatal("warm-up never filled the bottleneck queue")
	}
	before := f.AckedSegments
	checktest.AllocGuard(t, "TCP bulk transfer", 0, 1, func() {
		d.sim.Run(d.sim.Now() + 10*sim.Millisecond)
	})
	if f.AckedSegments == before {
		t.Error("nothing acknowledged during the measured runs")
	}
}

// TestAllocGuardTCPHorizon pins a TCP flow's memory flat in virtual time: a
// default NewReno flow on the dumbbell, past its slow-start overshoot after a
// 20 virtual s warm-up, allocates under 64 KiB in the next 100 virtual s
// (~83 k segments, ~42 k ACKs). The same flow with RecordLogs, which adds a
// sample per ACK to each of its three Series, must go over the bound, or the
// bound could not tell the two apart.
func TestAllocGuardTCPHorizon(t *testing.T) {
	if check.Enabled {
		t.Skip("allocation budgets are a production-build contract; the hypatia_checks build boxes assertion arguments")
	}
	const bound = 64 << 10
	horizon := func(record bool) uint64 {
		d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
		f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{RecordLogs: record})
		f.Start()
		d.sim.Run(20 * sim.Second)
		before := f.AckedSegments
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d.sim.Run(120 * sim.Second)
		runtime.ReadMemStats(&m1)
		if f.AckedSegments == before {
			t.Fatalf("RecordLogs=%v: nothing acknowledged over the measured 100 s", record)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	plain, recording := horizon(false), horizon(true)
	t.Logf("allocated over 100 virtual s: %d B by default, %d B with RecordLogs", plain, recording)
	if plain >= bound {
		t.Errorf("default flow allocated %d B over 100 virtual s, bound %d B", plain, bound)
	}
	if recording < bound {
		t.Errorf("flow with RecordLogs allocated %d B over 100 virtual s, under the %d B bound: the guard cannot tell it from a default flow", recording, bound)
	}
}

// TestAllocGuardTCPTimers pins TCP's per-ACK and per-segment timer work at
// zero allocations: arming and cancelling the retransmission timer, arming
// the delayed-ACK timer, and their carriers popping.
func TestAllocGuardTCPTimers(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{})
	checktest.AllocGuard(t, "TCP timer arms", 0, 1, func() {
		f.armRTO()
		f.cancelRTO()
		f.armRTO() // fires with nothing in flight: onTimeout returns at once
		f.delAckTimer.Reset(f.cfg.DelAckTimeout)
		f.delAckTimer.Stop()
		d.sim.Run(d.sim.Now() + 2*sim.Second)
	})
}
