package transport

import (
	"testing"

	"hypatia/internal/geom"
	"hypatia/internal/sim"
)

// receiverHolding returns a bare flow whose receiver got exactly the given
// segments, in order of the slice.
func receiverHolding(seqs ...int64) *TCPFlow {
	f := &TCPFlow{}
	for _, s := range seqs {
		f.accept(s)
	}
	return f
}

func TestSACKBlocksSummarizeOOO(t *testing.T) {
	f := receiverHolding(12, 6, 10, 5, 7)
	blocks := f.sackBlocks()
	want := [][2]int64{{5, 8}, {10, 11}, {12, 13}}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %v", blocks)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("blocks = %v, want %v", blocks, want)
		}
	}
}

func TestSACKBlocksCapAtFour(t *testing.T) {
	f := receiverHolding(1, 3, 5, 7, 9, 11)
	blocks := f.sackBlocks()
	if len(blocks) != 4 {
		t.Fatalf("blocks = %v, want 4 entries", blocks)
	}
}

func TestSACKTransferCompletesUnderLoss(t *testing.T) {
	// Burst loss: the tiny queue drops most of any burst; SACK must still
	// deliver everything, exactly once per sequence at the receiver.
	cfg := sim.DefaultConfig()
	cfg.QueuePackets = 4
	d := newDumbbell(t, cfg, geom.Vec3{}, 0)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{MaxSegments: 400, SACK: true})
	f.Start()
	d.sim.Run(60 * sim.Second)
	if !f.Done() {
		t.Fatalf("SACK flow incomplete: %d/400, retx=%d timeouts=%d",
			f.AckedSegments, f.RetxCount, f.TimeoutCount)
	}
	if f.ReceivedSegments() != 400 {
		t.Errorf("receiver delivered %d in order", f.ReceivedSegments())
	}
}

func TestSACKRecoversFasterThanNewRenoUnderBurstLoss(t *testing.T) {
	// Same brutal queue; compare time to move a fixed amount of data.
	run := func(sack bool) (sim.Time, int64) {
		cfg := sim.DefaultConfig()
		cfg.QueuePackets = 6
		d := newDumbbell(t, cfg, geom.Vec3{}, 0)
		f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{MaxSegments: 600, SACK: sack})
		f.Start()
		// Run until done, sampling completion time.
		var doneAt sim.Time
		var tick func()
		tick = func() {
			if f.Done() && doneAt == 0 {
				doneAt = d.sim.Now()
				return
			}
			d.sim.Schedule(10*sim.Millisecond, tick)
		}
		d.sim.Schedule(0, tick)
		d.sim.Run(240 * sim.Second)
		if doneAt == 0 {
			t.Fatalf("flow (sack=%v) incomplete: %d/600", sack, f.AckedSegments)
		}
		return doneAt, f.TimeoutCount
	}
	sackTime, _ := run(true)
	renoTime, _ := run(false)
	if sackTime >= renoTime {
		t.Errorf("SACK (%v) not faster than NewReno (%v) under burst loss", sackTime, renoTime)
	}
}

func TestSACKSurvivesOutageAndPathChange(t *testing.T) {
	// The SatB climb at t=10 s: reordering-free lengthening plus heavy
	// slow-start loss earlier; SACK must sustain goodput comparably to the
	// NewReno runs elsewhere.
	after := satAbove(20, 15, 1790e3)
	d := newDumbbell(t, sim.DefaultConfig(), after, 10)
	f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{SACK: true})
	f.Start()
	d.sim.Run(30 * sim.Second)
	if f.GoodputBps(30*sim.Second) < 4e6 {
		t.Errorf("SACK goodput %v Mbps", f.GoodputBps(30*sim.Second)/1e6)
	}
}

// TestSACKDisabledSendsNoBlocks: with SACK off, ACKs carry no blocks even
// under reordering (path shortening at t=5 s). The positive control runs the
// same reordering with SACK on and must see blocks, so the test cannot pass
// by never recognizing one: every packet is classified by its header flag,
// and any payload on an ACK other than a non-empty block list fails it.
func TestSACKDisabledSendsNoBlocks(t *testing.T) {
	run := func(sack bool) (acks, withBlocks int) {
		afterDrop := satAbove(0, 15, 600e3)
		d := newDumbbell(t, sim.DefaultConfig(), afterDrop, 5)
		f := NewTCPFlow(d.net, d.ids, 0, 1, TCPConfig{SACK: sack})
		d.net.SetTransmitHook(func(ti sim.TransmitInfo) {
			p := ti.Packet
			if p.Flags&tcpAck == 0 {
				if p.Payload != nil {
					t.Errorf("sack=%v: data segment %d carries payload %v", sack, p.Seq, p.Payload)
				}
				return
			}
			acks++
			if p.Payload == nil {
				return
			}
			if blocks, ok := p.Payload.([][2]int64); !ok || len(blocks) == 0 {
				t.Errorf("sack=%v: ACK %d carries payload %#v, not SACK blocks", sack, p.Ack, p.Payload)
				return
			}
			withBlocks++
		})
		f.Start()
		d.sim.Run(8 * sim.Second)
		if f.FastRetxCount == 0 {
			t.Errorf("sack=%v: no fast retransmit: the path change did not reorder", sack)
		}
		return acks, withBlocks
	}
	if acks, n := run(false); acks == 0 || n > 0 {
		t.Errorf("SACK disabled: %d of %d ACK transmissions carried blocks", n, acks)
	}
	if acks, n := run(true); n == 0 {
		t.Errorf("SACK enabled: none of %d ACK transmissions carried blocks under the same reordering", acks)
	}
}
