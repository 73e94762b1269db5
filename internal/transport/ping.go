package transport

import (
	"hypatia/internal/sim"
)

// PingConfig parameterizes a ping measurement stream.
type PingConfig struct {
	Interval sim.Time // time between echo requests; default 1 ms (paper §4.1)
	Size     int      // bytes on the wire per echo packet; default 64
}

func (c PingConfig) withDefaults() PingConfig {
	if c.Interval == 0 {
		c.Interval = sim.Millisecond
	}
	if c.Size == 0 {
		c.Size = 64
	}
	return c
}

// An echo packet carries its request's sequence number in the packet's Seq,
// the request's send time in Ack, and pingReply in Flags on the way back.
const pingReply uint8 = 1

// PingResult is the outcome of one echo request.
type PingResult struct {
	Seq    int64
	SentAt sim.Time
	RTT    sim.Time // 0 if no reply arrived before the run ended (paper
	// plots these trailing unanswered pings as zero)
	Replied bool
}

// Pinger sends an echo request every Interval from SrcGS to DstGS and logs
// response times — the measurement stream behind the paper's RTT-fluctuation
// figures. Requests that never return (disconnection, loss) remain with
// Replied = false.
type Pinger struct {
	Net    *sim.Network
	clk    sim.Clock
	cfg    PingConfig
	FlowID uint32
	SrcGS  int
	DstGS  int

	// interval fires sendNext one Interval after each request; the stream
	// runs exactly while it is armed (or inside sendNext).
	interval *sim.Timer
	results  []PingResult // results[seq] is request seq
}

// NewPinger creates a pinger and registers both endpoints. Call Start.
func NewPinger(net *sim.Network, ids *FlowIDs, srcGS, dstGS int, cfg PingConfig) *Pinger {
	p := &Pinger{
		Net: net, clk: net.Clock(srcGS), cfg: cfg.withDefaults(), FlowID: ids.Next(),
		SrcGS: srcGS, DstGS: dstGS,
	}
	p.interval = p.clk.NewTimer(p.sendNext)
	net.RegisterFlow(srcGS, p.FlowID, p.onReply)
	net.RegisterFlow(dstGS, p.FlowID, p.onRequest)
	return p
}

// Start begins the periodic echo stream; it runs until Stop or the end of
// the simulation.
func (p *Pinger) Start() {
	if p.interval.Armed() {
		panic("transport: pinger started twice")
	}
	p.sendNext()
}

// StartAfter schedules Start after a delay on the flow's Clock, as an event
// of its source station.
func (p *Pinger) StartAfter(delay sim.Time) { p.clk.Schedule(delay, p.Start) }

// Stop halts the request stream.
func (p *Pinger) Stop() { p.interval.Stop() }

func (p *Pinger) sendNext() {
	now := p.clk.Now()
	seq := int64(len(p.results))
	p.results = append(p.results, PingResult{Seq: seq, SentAt: now})
	p.Net.SendHeader(p.SrcGS, p.DstGS, p.FlowID, p.cfg.Size, seq, int64(now), 0, nil)
	p.interval.Reset(p.cfg.Interval)
}

// onRequest echoes a request back to the source.
func (p *Pinger) onRequest(pkt *sim.Packet) {
	if pkt.Flags&pingReply != 0 {
		return
	}
	p.Net.SendHeader(p.DstGS, p.SrcGS, p.FlowID, p.cfg.Size, pkt.Seq, pkt.Ack, pingReply, nil)
}

// onReply records the measured RTT.
func (p *Pinger) onReply(pkt *sim.Packet) {
	if pkt.Flags&pingReply == 0 {
		return
	}
	seq := pkt.Seq
	if seq < 0 || seq >= int64(len(p.results)) {
		return
	}
	p.results[seq].RTT = p.clk.Now() - sim.Time(pkt.Ack)
	p.results[seq].Replied = true
}

// Results returns all ping outcomes in sequence order. The slice is owned
// by the pinger.
func (p *Pinger) Results() []PingResult { return p.results }

// LossCount returns the number of unanswered pings.
func (p *Pinger) LossCount() int {
	lost := 0
	for _, r := range p.results {
		if !r.Replied {
			lost++
		}
	}
	return lost
}

// RTTSeries converts the replied pings to a Series in seconds.
func (p *Pinger) RTTSeries() Series {
	var s Series
	for _, r := range p.results {
		if r.Replied {
			s.Add(r.SentAt, r.RTT.Seconds())
		}
	}
	return s
}
