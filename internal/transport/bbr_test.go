package transport

import (
	"math"
	"testing"

	"hypatia/internal/geom"
	"hypatia/internal/sim"
)

func TestBBRSaturatesWithoutBufferbloat(t *testing.T) {
	// The headline BBR property: near-line-rate goodput while keeping the
	// queue — and therefore the RTT — near the propagation floor, unlike
	// NewReno which fills the buffer.
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{Algorithm: BBR, RecordLogs: true})
	f.Start()
	d.sim.Run(30 * sim.Second)

	goodput := f.GoodputBps(30 * sim.Second)
	if goodput < 0.75*10e6*1460/1500 {
		t.Errorf("BBR goodput = %.2f Mbps", goodput/1e6)
	}
	// Steady-state RTT (after startup drains) must sit near the floor:
	// compare the 90th percentile of samples after t=5 s with the minimum.
	var late Series
	for _, s := range f.RTTLog.Samples {
		if s.T > 5*sim.Second {
			late.Add(s.T, s.V)
		}
	}
	if late.Len() == 0 {
		t.Fatal("no late RTT samples")
	}
	min := f.RTTLog.Min()
	if p90 := late.Percentile(0.9); p90 > min+0.04 {
		t.Errorf("BBR p90 RTT %.1f ms vs floor %.1f ms: bufferbloat", p90*1e3, min*1e3)
	}
}

func TestBBRKeepsQueueSmallerThanNewReno(t *testing.T) {
	run := func(alg CCAlgorithm) float64 {
		d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
		f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{Algorithm: alg, RecordLogs: true})
		f.Start()
		d.sim.Run(30 * sim.Second)
		return f.RTTLog.Percentile(0.9)
	}
	bbrP90 := run(BBR)
	renoP90 := run(NewReno)
	if bbrP90 >= renoP90 {
		t.Errorf("BBR p90 RTT %.1f ms not below NewReno's %.1f ms", bbrP90*1e3, renoP90*1e3)
	}
}

func TestBBRSurvivesPathLengthening(t *testing.T) {
	// Vegas's failure mode (Fig 5): a path-change RTT rise. BBR's RTprop
	// window refreshes within 10 s, so throughput must recover.
	after := satAbove(20, 15, 1790e3)
	d := newDumbbell(t, sim.DefaultConfig(), after, 10)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{Algorithm: BBR, RecordLogs: true})
	f.Start()
	d.sim.Run(45 * sim.Second)
	// Goodput over the final 10 s, well after the change and at least one
	// RTprop refresh.
	var lateBytes float64
	for _, s := range f.AckedLog.Samples {
		if s.T >= 35*sim.Second {
			lateBytes += s.V
		}
	}
	lateGoodput := lateBytes * 8 / 10
	if lateGoodput < 5e6 {
		t.Errorf("BBR late goodput = %.2f Mbps after path change, want >5", lateGoodput/1e6)
	}
}

func TestBBRRecoversFromLoss(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.QueuePackets = 8
	d := newDumbbell(t, cfg, geom.Vec3{}, 0)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{Algorithm: BBR, SACK: true, MaxSegments: 500})
	f.Start()
	d.sim.Run(60 * sim.Second)
	if !f.Done() {
		t.Fatalf("BBR flow incomplete: %d/500, retx=%d timeouts=%d",
			f.AckedSegments, f.RetxCount, f.TimeoutCount)
	}
}

func TestBBRUnreachableDestinationDoesNotSpin(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewTCPFlow(d.net, d.ids, 0, 2, TCPConfig{Algorithm: BBR, MaxSegments: 10})
	f.Start()
	d.sim.Run(20 * sim.Second)
	if f.AckedSegments != 0 {
		t.Errorf("acked %d to unreachable GS", f.AckedSegments)
	}
	if f.TimeoutCount == 0 {
		t.Error("no RTO for black-holed BBR flow")
	}
}

func TestBBRStateMachineReachesProbeBW(t *testing.T) {
	d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{Algorithm: BBR, RecordLogs: true})
	f.Start()
	d.sim.Run(10 * sim.Second)
	if f.bbr.state != bbrProbeBW {
		t.Errorf("BBR state after 10 s = %v, want ProbeBW", f.bbr.state)
	}
	// The bandwidth estimate should be near the bottleneck in segments/s:
	// 10 Mb/s over 1500 B wire segments is ~833 seg/s.
	if f.bbr.btlBw < 700 || f.bbr.btlBw > 900 {
		t.Errorf("btlBw estimate = %.0f seg/s, want ~833", f.bbr.btlBw)
	}
	// RTprop near the propagation floor.
	if f.bbr.rtProp > f.RTTLog.Min()+0.002 {
		t.Errorf("rtProp %.1f ms vs observed floor %.1f ms", f.bbr.rtProp*1e3, f.RTTLog.Min()*1e3)
	}
}

// TestBBRSkipsRetransmittedSample: Karn's rule for BBR's model. When the
// newest segment a cumulative ACK covers was retransmitted, which copy the ACK
// answers is ambiguous, so neither its delivery rate nor its RTT may feed the
// filters. The check once read the retransmission mark after onNewAck had
// cleared it and never fired. The control ACKs the same segment sent once,
// which must be sampled.
func TestBBRSkipsRetransmittedSample(t *testing.T) {
	for _, retx := range []bool{false, true} {
		d := newDumbbell(t, sim.DefaultConfig(), geom.Vec3{}, 0)
		// GS2 is unreachable: nothing comes back, so the ACK below is the
		// flow's only one.
		f := NewTCPFlow(d.net, d.ids, 0, 2, TCPConfig{Algorithm: BBR, MaxSegments: 1})
		f.Start() // segment 0 leaves at t=0
		d.sim.Run(100 * sim.Millisecond)
		if retx {
			f.sendSegment(0, true)
		}
		f.onNewAck(1)
		b := f.bbr
		untouched := b.btlBw == 0 && b.bwSamples == [bbrBtlBwWindow]float64{} && math.IsInf(b.rtProp, 1)
		if untouched != retx {
			t.Errorf("retransmitted=%v: after the ACK btlBw=%v bwSamples=%v rtProp=%v", retx, b.btlBw, b.bwSamples, b.rtProp)
		}
	}
}

func TestBBRString(t *testing.T) {
	if BBR.String() != "BBR" {
		t.Error("BBR name")
	}
}
