package transport

import (
	"hypatia/internal/sim"
)

// UDPConfig parameterizes a constant-bit-rate UDP flow.
type UDPConfig struct {
	RateBps     float64 // application send rate, bits/s of payload+header
	PayloadSize int     // payload bytes per packet; default 1472
	HeaderBytes int     // UDP/IP header bytes; default 28
}

func (c UDPConfig) withDefaults() UDPConfig {
	if c.PayloadSize == 0 {
		c.PayloadSize = 1472
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 28
	}
	return c
}

// UDPFlow is a paced constant-bit-rate sender with a counting sink, the
// workload of the paper's UDP scalability experiments: each GS pair sends
// paced UDP traffic at the line rate, and goodput is the network-wide rate
// of payload arrivals.
type UDPFlow struct {
	Net    *sim.Network
	clk    sim.Clock
	cfg    UDPConfig
	FlowID uint32
	SrcGS  int
	DstGS  int

	// pace fires sendNext one packet time after each send. The flow runs
	// exactly while it is armed (or inside sendNext), so a quick Stop/Start
	// re-arms the one timer and cannot leave two pacing chains alive.
	pace *sim.Timer
	sent int64 // packets sent
	// ReceivedPayloadBytes counts payload bytes that reached the sink. It is
	// the sink's whole record: a per-arrival log would grow by 16 B a packet
	// for as long as the flow runs.
	ReceivedPayloadBytes int64
}

// NewUDPFlow creates the flow and registers its sink. Call Start to begin.
func NewUDPFlow(net *sim.Network, ids *FlowIDs, srcGS, dstGS int, cfg UDPConfig) *UDPFlow {
	cfg = cfg.withDefaults()
	if cfg.RateBps <= 0 {
		panic("transport: UDP flow needs a positive rate")
	}
	f := &UDPFlow{Net: net, clk: net.Clock(srcGS), cfg: cfg, FlowID: ids.Next(), SrcGS: srcGS, DstGS: dstGS}
	f.pace = f.clk.NewTimer(f.sendNext)
	net.RegisterFlow(dstGS, f.FlowID, f.onReceive)
	return f
}

// Start begins paced transmission and keeps sending until Stop.
func (f *UDPFlow) Start() {
	if f.pace.Armed() {
		panic("transport: UDP flow started twice")
	}
	f.sendNext()
}

// StartAfter schedules Start after a delay on the flow's Clock, as an event
// of its source station.
func (f *UDPFlow) StartAfter(delay sim.Time) { f.clk.Schedule(delay, f.Start) }

// Stop halts the sender: the next scheduled packet is not sent.
func (f *UDPFlow) Stop() { f.pace.Stop() }

// Sent returns the number of packets transmitted.
func (f *UDPFlow) Sent() int64 { return f.sent }

func (f *UDPFlow) sendNext() {
	wire := f.cfg.PayloadSize + f.cfg.HeaderBytes
	// No payload travels: the sink derives the payload bytes from the wire
	// size, and a boxed int per packet would be the path's only allocation.
	f.Net.Send(f.SrcGS, f.DstGS, f.FlowID, wire, nil)
	f.sent++
	// Pace at the configured rate counted over wire bytes.
	f.pace.Reset(sim.Seconds(float64(wire*8) / f.cfg.RateBps))
}

func (f *UDPFlow) onReceive(pkt *sim.Packet) {
	f.ReceivedPayloadBytes += int64(int(pkt.Size) - f.cfg.HeaderBytes)
}

// GoodputBps returns average payload goodput over the elapsed time.
func (f *UDPFlow) GoodputBps(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(f.ReceivedPayloadBytes*8) / elapsed.Seconds()
}
