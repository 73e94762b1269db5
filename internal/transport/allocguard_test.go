package transport

import (
	"testing"

	"hypatia/internal/check/checktest"
	"hypatia/internal/geom"
	"hypatia/internal/sim"
)

// TestAllocGuardUDPSteadyState pins the UDP send → deliver loop at zero heap
// allocations per packet once the path is full: Send reuses the records of
// delivered packets, no payload is boxed, and the pacing timer reschedules one
// cached func value. Each measured run is 10 virtual ms at line rate (~83
// packets sent and as many delivered); the only allocation left is the growth
// of the sink's Series, which amortizes to less than one per run.
func TestAllocGuardUDPSteadyState(t *testing.T) {
	const rate = 100e6
	cfg := sim.DefaultConfig()
	cfg.ISLRateBps, cfg.GSLRateBps = rate, rate
	d := newDumbbell(t, cfg, geom.Vec3{}, 0)
	f := NewUDPFlow(d.net, d.ids, 0, 1, UDPConfig{RateBps: rate})
	f.Start()
	d.sim.Run(100 * sim.Millisecond)
	if f.ReceivedLog.Len() == 0 {
		t.Fatal("nothing delivered during warm-up")
	}
	checktest.AllocGuard(t, "UDP send/deliver loop", 0, 1, func() {
		d.sim.Run(d.sim.Now() + 10*sim.Millisecond)
	})
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
