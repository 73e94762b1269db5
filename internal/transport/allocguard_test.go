package transport

import (
	"testing"

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
// retransmission and delayed-ACK timers — at one allocation per 10 virtual ms
// (~8 segments and ~4 ACKs at the dumbbell's 10 Mbit/s), the amortized growth
// of the flow's CwndLog, RTTLog and AckedLog. The header words ride in the
// packet, so no segment or ACK boxes anything (the parent boxed both and
// inserted into four maps per segment); the warm-up takes the flow through
// its slow-start overshoot and recovery, so the scoreboard has grown to its
// span.
func TestAllocGuardTCPSteadyState(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{})
	f.Start()
	d.sim.Run(10 * sim.Second)
	if f.FastRetxCount == 0 {
		t.Fatal("warm-up never filled the bottleneck queue")
	}
	before := f.AckedSegments
	checktest.AllocGuard(t, "TCP bulk transfer", 1, 1, func() {
		d.sim.Run(d.sim.Now() + 10*sim.Millisecond)
	})
	if f.AckedSegments == before {
		t.Error("nothing acknowledged during the measured runs")
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
