package transport

import (
	"fmt"
	"math"

	"hypatia/internal/check"
	"hypatia/internal/sim"
)

// CCAlgorithm selects the congestion-control algorithm of a TCP flow.
type CCAlgorithm int

const (
	// NewReno is loss-based congestion control (RFC 5681/6582): slow
	// start, AIMD congestion avoidance, fast retransmit and NewReno
	// partial-ACK fast recovery.
	NewReno CCAlgorithm = iota
	// Vegas is delay-based congestion control: it compares the expected
	// and actual rates using the minimum RTT ever seen (baseRTT) and
	// backs off when measured delay rises — which, on LEO paths whose
	// propagation delay grows after a path change, it misreads as
	// congestion (Fig. 5 of the paper).
	Vegas
	// BBR is model-based congestion control (BBRv1-style): it paces at
	// the estimated bottleneck bandwidth and refreshes its propagation-
	// delay floor every 10 s, so LEO path changes age out of the model
	// instead of being misread as congestion. The paper names evaluating
	// BBR on LEO networks as work of high interest (§4.2); see bbr.go.
	BBR
)

// String names the algorithm.
func (a CCAlgorithm) String() string {
	switch a {
	case NewReno:
		return "NewReno"
	case Vegas:
		return "Vegas"
	case BBR:
		return "BBR"
	}
	return "unknown"
}

// TCPConfig parameterizes a TCP flow. Zero values select the defaults noted
// on each field.
type TCPConfig struct {
	Algorithm CCAlgorithm

	MSS         int // payload bytes per segment; default 1460
	HeaderBytes int // TCP/IP header bytes per data segment; default 40
	AckBytes    int // bytes of a pure ACK on the wire; default 40

	InitialCwnd     float64  // initial congestion window, segments; default 10
	InitialSSThresh float64  // initial slow-start threshold, segments; default +Inf
	MinRTO          sim.Time // RTO lower bound; default 1 s (RFC 6298)
	MaxRTO          sim.Time // RTO upper bound; default 60 s

	// NoDelayedAcks turns off the receiver's delayed-ACK behavior (ACK every
	// second in-order segment or after DelAckTimeout). The paper notes
	// delayed ACKs cause RTT oscillations at low rates but do not change
	// the headline behavior; they are on by default as in ns-3.
	NoDelayedAcks bool
	DelAckTimeout sim.Time // default 200 ms

	// Vegas parameters, in segments (standard alpha=2, beta=4, gamma=1).
	VegasAlpha float64
	VegasBeta  float64
	VegasGamma float64

	// MaxSegments bounds the amount of data to send; 0 means a
	// long-running flow that never exhausts data.
	MaxSegments int64

	// RecordLogs turns on the flow's per-packet logs: CwndLog, RTTLog and
	// AckedLog on the sender (about one sample per ACK each) and
	// ArrivalLog on the receiver (one sequence number per data segment, for
	// AnalyzeReordering). Set it on the flows a figure plots. Off, the
	// default, the flow keeps only its counters (AckedSegments, RetxCount,
	// ...), so its memory stays flat however long it runs.
	RecordLogs bool

	// SACK enables selective acknowledgments (RFC 2018 blocks with an
	// RFC 6675-style scoreboard): the receiver reports out-of-order runs
	// and the sender repairs one hole per arriving ACK during recovery
	// instead of NewReno's one hole per round trip. Off by default — the
	// paper's experiments model the classic stack — but available because
	// multi-loss episodes on LEO paths (outages, slow-start overshoot)
	// are exactly where classic NewReno is slowest.
	SACK bool
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 40
	}
	if c.AckBytes == 0 {
		c.AckBytes = 40
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 10
	}
	if c.InitialSSThresh == 0 {
		c.InitialSSThresh = math.Inf(1)
	}
	if c.MinRTO == 0 {
		c.MinRTO = sim.Second
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 60 * sim.Second
	}
	if c.DelAckTimeout == 0 {
		c.DelAckTimeout = 200 * sim.Millisecond
	}
	if c.VegasAlpha == 0 {
		c.VegasAlpha = 2
	}
	if c.VegasBeta == 0 {
		c.VegasBeta = 4
	}
	if c.VegasGamma == 0 {
		c.VegasGamma = 1
	}
	return c
}

// A TCP packet's header rides in the sim.Packet words: Seq is a data
// segment's sequence number, Ack an ACK's cumulative acknowledgment (the next
// expected segment), and Flags the bits below. Sequence numbers count whole
// segments (MSS units), which keeps the bookkeeping at the same granularity
// the paper plots (congestion window in packets). The one variable-length
// part, an ACK's up to 4 selective-acknowledgment blocks [lo, hi) describing
// out-of-order data the receiver holds (RFC 2018), travels as a [][2]int64
// Payload when the flow has SACK enabled.
const (
	tcpAck  uint8 = 1 << iota // a pure ACK; otherwise a data segment
	tcpRetx                   // data: a retransmission (Karn's rule)
)

// Per-segment flags of the sender's scoreboard.
const (
	segSent     uint8 = 1 << iota // sentAt holds the first transmission's time
	segRetx                       // retransmitted at least once: no RTT sample
	segSacked                     // the receiver reported holding it (SACK)
	segSackRetx                   // hole already repaired this recovery (SACK)
)

// segSlot is the sender's record of one segment.
type segSlot struct {
	sentAt sim.Time
	flags  uint8
}

// sndRing is the sender's scoreboard: the record of segment s, for s in
// [una, una+len(slots)), at slots[s & (len-1)], una being the flow's sndUna
// and len a power of two. A segment outside that span has no state: the
// cumulative ACK cleared its slot as it passed, or nothing was ever written
// for it.
type sndRing struct{ slots []segSlot }

// at returns segment s's record, zero outside the span.
func (r *sndRing) at(una, s int64) segSlot {
	if s < una || s-una >= int64(len(r.slots)) {
		return segSlot{}
	}
	return r.slots[s&int64(len(r.slots)-1)]
}

// slot returns segment s (not below una) for writing, doubling the ring
// until its span reaches s.
func (r *sndRing) slot(una, s int64) *segSlot {
	if check.Enabled {
		check.Assert(s >= una, "scoreboard write to segment %d below sndUna %d", s, una)
	}
	for s-una >= int64(len(r.slots)) {
		r.grow(una)
	}
	return &r.slots[s&int64(len(r.slots)-1)]
}

// grow doubles the ring in place: a segment keeps its slot or moves to the
// slot len above it, whichever its sequence number's bit len selects, and
// the slots it leaves stand for segments beyond the old span, which have no
// state.
func (r *sndRing) grow(una int64) {
	n := int64(len(r.slots))
	if n == 0 {
		r.slots = make([]segSlot, 16)
		return
	}
	r.slots = append(r.slots, make([]segSlot, n)...)
	for s := una; s < una+n; s++ {
		if i := s & (n - 1); s&n != 0 {
			r.slots[i+n], r.slots[i] = r.slots[i], segSlot{}
		}
	}
}

// advance zeroes the slots of segments [una, ack) as a cumulative ACK passes
// them; they then stand for the segments just beyond the span.
func (r *sndRing) advance(una, ack int64) {
	for s := una; s < ack && s-una < int64(len(r.slots)); s++ {
		r.slots[s&int64(len(r.slots)-1)] = segSlot{}
	}
}

// clear removes flag from every segment.
func (r *sndRing) clear(flag uint8) {
	for i := range r.slots {
		r.slots[i].flags &^= flag
	}
}

// oooRing is the receiver's out-of-order set: one bit per segment s in
// [nxt, nxt+64*len(words)) at bit s & (64*len-1), nxt being the flow's rcvNxt,
// and n the number of bits set. Every segment held lies above nxt and its bit
// is cleared as nxt reaches it, so the ring needs no other bookkeeping to
// slide.
type oooRing struct {
	words []uint64
	n     int
}

// bit locates segment s, which must lie in the span: word w, mask b.
func (r *oooRing) bit(s int64) (w int64, b uint64) {
	i := s & (int64(len(r.words))*64 - 1)
	return i >> 6, 1 << (i & 63)
}

// has reports whether segment s is held.
func (r *oooRing) has(nxt, s int64) bool {
	if r.n == 0 || s < nxt || s-nxt >= int64(len(r.words))*64 {
		return false
	}
	w, b := r.bit(s)
	return r.words[w]&b != 0
}

// add records segment s > nxt, doubling the ring until its span reaches s.
func (r *oooRing) add(nxt, s int64) {
	if check.Enabled {
		check.Assert(s > nxt, "out-of-order segment %d not above rcvNxt %d", s, nxt)
	}
	for s-nxt >= int64(len(r.words))*64 {
		r.grow(nxt)
	}
	if w, b := r.bit(s); r.words[w]&b == 0 {
		r.words[w] |= b
		r.n++
	}
}

// take removes segment s, the next expected one, and reports whether it was
// held.
func (r *oooRing) take(s int64) bool {
	if !r.has(s, s) {
		return false
	}
	w, b := r.bit(s)
	r.words[w] &^= b
	r.n--
	return true
}

// grow doubles the ring in place, as sndRing.grow does.
func (r *oooRing) grow(nxt int64) {
	n := int64(len(r.words)) * 64
	if n == 0 {
		r.words = make([]uint64, 1)
		return
	}
	r.words = append(r.words, make([]uint64, len(r.words))...)
	for s := nxt; s < nxt+n; s++ {
		if i := s & (n - 1); s&n != 0 && r.words[i>>6]&(1<<(i&63)) != 0 {
			r.words[i>>6] &^= 1 << (i & 63)
			r.words[(i+n)>>6] |= 1 << ((i + n) & 63)
		}
	}
}

// TCPFlow is a unidirectional TCP connection between two ground stations:
// data flows src->dst, ACKs dst->src. It implements sender, receiver, and
// the selected congestion-control algorithm, and, with RecordLogs, records
// the time series the paper's per-connection figures show.
type TCPFlow struct {
	Net    *sim.Network
	clk    sim.Clock
	cfg    TCPConfig
	FlowID uint32
	SrcGS  int
	DstGS  int

	// Sender state.
	started    bool
	cwnd       float64 // congestion window, segments
	ssthresh   float64 // slow-start threshold, segments
	sndUna     int64   // oldest unacknowledged segment
	sndNxt     int64   // next segment to send
	dupAcks    int
	inRecovery bool
	recover    int64 // NewReno: sndNxt at loss detection
	// partialAckSeen marks that the first partial ACK of the current
	// recovery already restarted the RTO (RFC 6582 impatient variant).
	partialAckSeen bool

	// snd is the per-segment scoreboard from sndUna up: first-transmission
	// time, ever retransmitted (no RTT sample), and the SACK marks.
	snd      sndRing
	rtoTimer *sim.Timer // retransmission timer; fires onTimeout
	srtt     float64    // smoothed RTT, seconds (0 until first sample)
	rttvar   float64
	rto      sim.Time
	backoff  int

	// Vegas state.
	baseRTT     float64 // minimum RTT ever observed, seconds
	vegasMinRTT float64 // minimum RTT in the current RTT window
	vegasCnt    int
	vegasBeg    int64 // segment marking the end of the current RTT window

	// BBR model (nil unless Algorithm == BBR).
	bbr *bbr

	// SACK high-water mark: highest sacked segment + 1 (the marks themselves
	// are in snd).
	highSack int64

	// Receiver state.
	rcvNxt    int64
	ooo       oooRing // out-of-order segments received
	delAckCnt int
	// delAckTimer acknowledges a lone segment that no second one follows. It
	// runs on the source station's clock like everything else of the flow
	// (RegisterFlow colocates the two ends): the owner is part of the
	// canonical event order.
	delAckTimer *sim.Timer
	// ArrivalLog is the receiver-side arrival order of data segment
	// sequence numbers; empty unless RecordLogs.
	ArrivalLog []int64

	// Per-packet logs, each empty unless RecordLogs; Min / Max of an empty
	// Series read +Inf / -Inf.
	CwndLog  Series // congestion window, segments
	RTTLog   Series // sender-measured per-packet RTT, seconds
	AckedLog Series // newly acknowledged payload bytes per ACK (for throughput)

	// Counters, kept whether or not the flow records its logs.
	RetxCount     int64
	TimeoutCount  int64
	FastRetxCount int64

	// AckedSegments is the cumulative count of segments acknowledged.
	AckedSegments int64
	// AcksReceived counts ACK packets that reached the sender.
	AcksReceived int64
}

// NewTCPFlow creates a TCP flow and registers its endpoints on the network.
// Call Start to begin transmission.
func NewTCPFlow(net *sim.Network, ids *FlowIDs, srcGS, dstGS int, cfg TCPConfig) *TCPFlow {
	cfg = cfg.withDefaults()
	f := &TCPFlow{
		Net:         net,
		cfg:         cfg,
		FlowID:      ids.Next(),
		SrcGS:       srcGS,
		DstGS:       dstGS,
		cwnd:        cfg.InitialCwnd,
		ssthresh:    cfg.InitialSSThresh,
		rto:         cfg.MinRTO,
		recover:     -1,
		baseRTT:     math.Inf(1),
		vegasMinRTT: math.Inf(1),
	}
	f.clk = net.Clock(srcGS)
	f.rtoTimer = f.clk.NewTimer(f.onTimeout)
	f.delAckTimer = f.clk.NewTimer(f.sendAck)
	if cfg.Algorithm == BBR {
		f.bbr = newBBR()
		f.bbr.pacing = f.clk.NewTimer(f.bbrPacedSend)
	}
	net.RegisterFlow(srcGS, f.FlowID, f.onSenderPacket)
	net.RegisterFlow(dstGS, f.FlowID, f.onReceiverPacket)
	return f
}

// Config returns the flow's configuration with defaults applied.
func (f *TCPFlow) Config() TCPConfig { return f.cfg }

// Cwnd returns the current congestion window in segments.
func (f *TCPFlow) Cwnd() float64 { return f.cwnd }

// StartAfter schedules Start after a delay on the flow's own engine (the
// sharded-run-safe way to stagger flow starts).
func (f *TCPFlow) StartAfter(delay sim.Time) { f.clk.Schedule(delay, f.Start) }

// Start begins transmission at the simulator's current time (schedule it
// via StartAfter for delayed starts).
func (f *TCPFlow) Start() {
	if f.started {
		panic("transport: TCP flow started twice")
	}
	f.started = true
	f.logCwnd()
	if f.cfg.Algorithm == BBR {
		f.bbrPacedSend()
		return
	}
	f.trySend()
	f.armRTO()
}

// Done reports whether a bounded flow has delivered all its data.
func (f *TCPFlow) Done() bool {
	return f.cfg.MaxSegments > 0 && f.sndUna >= f.cfg.MaxSegments
}

// GoodputBps returns the average goodput (acknowledged payload) in bits/s
// between flow start (t=0 reference) and now.
func (f *TCPFlow) GoodputBps(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(f.AckedSegments*int64(f.cfg.MSS)*8) / elapsed.Seconds()
}

func (f *TCPFlow) logCwnd() {
	if check.Enabled {
		check.Assert(f.cwnd >= 1 && !math.IsNaN(f.cwnd) && !math.IsInf(f.cwnd, 0),
			"flow %d cwnd %v outside [1, +finite)", f.FlowID, f.cwnd)
		check.Assert(f.ssthresh >= 1, "flow %d ssthresh %v below 1 segment", f.FlowID, f.ssthresh)
		check.Assert(f.sndUna <= f.sndNxt, "flow %d sndUna %d ahead of sndNxt %d", f.FlowID, f.sndUna, f.sndNxt)
	}
	if f.cfg.RecordLogs {
		f.CwndLog.Add(f.clk.Now(), f.cwnd)
	}
}

// flightSize returns the number of unacknowledged segments.
func (f *TCPFlow) flightSize() int64 { return f.sndNxt - f.sndUna }

// trySend transmits as many new segments as the congestion window allows.
// With SACK, segments the receiver already reported holding are skipped
// (relevant after a timeout's go-back-N rewind).
func (f *TCPFlow) trySend() {
	for f.sndNxt < f.sndUna+int64(f.cwnd) {
		if f.cfg.MaxSegments > 0 && f.sndNxt >= f.cfg.MaxSegments {
			return
		}
		if f.cfg.SACK && f.snd.at(f.sndUna, f.sndNxt).flags&segSacked != 0 {
			f.sndNxt++
			continue
		}
		f.sendSegment(f.sndNxt, false)
		f.sndNxt++
	}
}

// sendSegment puts one data segment on the wire.
func (f *TCPFlow) sendSegment(seq int64, retx bool) {
	if f.recordSend(seq, retx, f.clk.Now()) {
		f.RetxCount++
	}
	var flags uint8
	if retx {
		flags = tcpRetx
	}
	f.Net.SendHeader(f.SrcGS, f.DstGS, f.FlowID, f.cfg.MSS+f.cfg.HeaderBytes, seq, 0, flags, nil)
}

// recordSend enters a transmission of seq at now into the scoreboard and
// reports whether it is a retransmission: any send of a sequence that
// already left once is one (Karn's rule), even when reached through
// go-back-N's regular send path.
func (f *TCPFlow) recordSend(seq int64, retx bool, now sim.Time) bool {
	sl := f.snd.slot(f.sndUna, seq)
	if sl.flags&segSent != 0 || retx {
		sl.flags |= segRetx
		return true
	}
	sl.sentAt, sl.flags = now, sl.flags|segSent
	return false
}

// ---- Receiver ----

// onReceiverPacket handles data arriving at the destination.
func (f *TCPFlow) onReceiverPacket(pkt *sim.Packet) {
	if pkt.Flags&tcpAck != 0 {
		return // stray ACK at receiver; cannot happen with distinct GSes
	}
	if f.cfg.RecordLogs {
		f.ArrivalLog = append(f.ArrivalLog, pkt.Seq)
	}
	hadOOO := f.ooo.n > 0
	inOrder := f.accept(pkt.Seq)

	// RFC 5681: ACK immediately while there is (or was) a sequence hole, so
	// the sender learns about filled gaps without delayed-ACK latency.
	if inOrder && !f.cfg.NoDelayedAcks && !hadOOO && f.ooo.n == 0 {
		f.delAckCnt++
		if f.delAckCnt >= 2 {
			f.sendAck()
			return
		}
		// Arm the delayed-ACK timer for a lone segment.
		f.delAckTimer.Reset(f.cfg.DelAckTimeout)
		return
	}
	// Out-of-order and duplicate segments trigger immediate (dup) ACKs;
	// without delayed ACKs every segment does.
	f.sendAck()
}

// accept enters data segment seq into the receive state and reports whether
// it advanced rcvNxt: in order, it pulls rcvNxt past every out-of-order
// segment it joins; above rcvNxt it is held out of order (reordering or
// loss); below, it is a duplicate of data already received (a spurious
// retransmission).
func (f *TCPFlow) accept(seq int64) bool {
	switch {
	case seq == f.rcvNxt:
		f.rcvNxt++
		for f.ooo.take(f.rcvNxt) {
			f.rcvNxt++
		}
		return true
	case seq > f.rcvNxt:
		f.ooo.add(f.rcvNxt, seq)
	}
	return false
}

// sendAck emits a cumulative ACK for everything received in order, with
// SACK blocks describing out-of-order runs when enabled.
func (f *TCPFlow) sendAck() {
	f.delAckCnt = 0
	f.delAckTimer.Stop()
	var sack any
	if f.cfg.SACK && f.ooo.n > 0 {
		sack = f.sackBlocks()
	}
	f.Net.SendHeader(f.DstGS, f.SrcGS, f.FlowID, f.cfg.AckBytes, 0, f.rcvNxt, tcpAck, sack)
}

// sackBlocks summarizes the out-of-order set as up to 4 [lo, hi) runs,
// lowest first.
func (f *TCPFlow) sackBlocks() [][2]int64 {
	var blocks [][2]int64
	for s, left := f.rcvNxt+1, f.ooo.n; left > 0; s++ {
		if !f.ooo.has(f.rcvNxt, s) {
			continue
		}
		left--
		if len(blocks) > 0 && blocks[len(blocks)-1][1] == s {
			blocks[len(blocks)-1][1] = s + 1
			continue
		}
		if len(blocks) == 4 {
			break
		}
		blocks = append(blocks, [2]int64{s, s + 1})
	}
	return blocks
}

// ReceivedSegments returns how many segments the receiver has delivered
// in order.
func (f *TCPFlow) ReceivedSegments() int64 { return f.rcvNxt }

// ---- Sender ----

// onSenderPacket handles ACKs arriving back at the source.
func (f *TCPFlow) onSenderPacket(pkt *sim.Packet) {
	if pkt.Flags&tcpAck == 0 {
		return
	}
	f.AcksReceived++
	if f.cfg.SACK {
		if sack, _ := pkt.Payload.([][2]int64); len(sack) > 0 {
			f.processSACK(sack)
		}
	}
	if pkt.Ack > f.sndUna {
		f.onNewAck(pkt.Ack)
	} else if f.flightSize() > 0 {
		f.onDupAck()
	}
}

// onNewAck processes an ACK advancing the window.
func (f *TCPFlow) onNewAck(ack int64) {
	newly := ack - f.sndUna

	// RTT sampling. No samples during fast recovery, and none from ACKs
	// that advance by more than a delayed-ACK stride: such jumps acknowledge
	// segments that were stuck behind retransmission holes, so their age
	// measures the recovery, not the path.
	if !f.inRecovery && newly <= 2 {
		if rtt, ok := f.karnSample(ack, f.clk.Now()); ok {
			f.sampleRTT(rtt)
		}
	}
	if f.bbr != nil {
		f.bbrSample(ack)
	}
	f.snd.advance(f.sndUna, ack)
	f.sndUna = ack
	// A cumulative ACK can land above sndNxt after a timeout's go-back-N
	// rewind (the ACK was for data in flight before the rewind). The
	// rewound-but-already-received segments must not be resent: pull
	// sndNxt forward so flight accounting stays consistent.
	if f.sndNxt < f.sndUna {
		f.sndNxt = f.sndUna
	}
	f.AckedSegments = ack
	if f.cfg.RecordLogs {
		f.AckedLog.Add(f.clk.Now(), float64(newly*int64(f.cfg.MSS)))
	}
	f.backoff = 0

	if f.inRecovery {
		if ack >= f.recover {
			// Full ACK: leave fast recovery (NewReno).
			f.inRecovery = false
			f.dupAcks = 0
			f.cwnd = f.ssthresh
		} else {
			// Partial ACK: retransmit the next hole, deflate the window by
			// the amount acknowledged, inflate by one. With SACK the next
			// hole may be above sndUna.
			if !f.cfg.SACK || !f.retransmitHole() {
				f.sendSegment(f.sndUna, true)
			}
			f.cwnd = math.Max(f.cwnd-float64(newly)+1, 1)
			// RFC 6582 "impatient" variant: only the first partial ACK
			// restarts the retransmission timer, so a recovery crawling
			// through many holes (one per RTT) is cut short by an RTO
			// and go-back-N instead of stalling for tens of seconds.
			if !f.partialAckSeen {
				f.partialAckSeen = true
			} else {
				f.logCwnd()
				f.trySend()
				return
			}
		}
	} else {
		f.dupAcks = 0
		switch f.cfg.Algorithm {
		case NewReno:
			f.renoIncrease(newly)
		case Vegas:
			f.vegasUpdate(newly)
		case BBR:
			f.bbrOnAck(ack)
		}
	}
	f.logCwnd()

	if f.flightSize() > 0 {
		f.armRTO()
	} else {
		f.cancelRTO()
	}
	if f.cfg.Algorithm != BBR {
		f.trySend() // BBR transmissions are pacing-timer driven
	}
}

// karnSample returns, at now, the age of the most recent segment below ack
// with a first-transmission time — unless that segment was ever
// retransmitted, whose ACK is ambiguous (Karn's rule): then there is no
// sample.
func (f *TCPFlow) karnSample(ack int64, now sim.Time) (sim.Time, bool) {
	for seq := ack - 1; seq >= f.sndUna; seq-- {
		if sl := f.snd.at(f.sndUna, seq); sl.flags&segSent != 0 {
			return now - sl.sentAt, sl.flags&segRetx == 0
		}
	}
	return 0, false
}

// renoIncrease applies slow start or congestion avoidance.
func (f *TCPFlow) renoIncrease(newly int64) {
	if f.cwnd < f.ssthresh {
		f.cwnd += float64(newly) // slow start: +1 per acked segment
	} else {
		f.cwnd += float64(newly) / f.cwnd // congestion avoidance
	}
}

// onDupAck processes a duplicate ACK.
func (f *TCPFlow) onDupAck() {
	if f.cfg.Algorithm == BBR {
		// BBR does not treat loss as a congestion signal: retransmit (the
		// SACK hole if known, else the first unacked segment on the third
		// duplicate) and let pacing continue.
		f.dupAcks++
		if f.cfg.SACK && f.retransmitHole() {
			return
		}
		if f.dupAcks == 3 {
			f.FastRetxCount++
			f.sendSegment(f.sndUna, true)
			f.armRTO()
		}
		return
	}
	if f.inRecovery {
		// Window inflation per extra dup ACK, capped at one full at-loss
		// window beyond ssthresh (inflation past that cannot correspond to
		// packets that actually left the network).
		if f.cwnd < 2*f.ssthresh+3 {
			f.cwnd++
			f.logCwnd()
			// With SACK, repair the next reported hole before sending new
			// data: one hole per ACK instead of one per round trip.
			if f.cfg.SACK && f.retransmitHole() {
				return
			}
			f.trySend()
		}
		return
	}
	f.dupAcks++
	if f.dupAcks == 3 && f.sndUna <= f.recover {
		// RFC 6582 "careful" variant: duplicate ACKs for data below the
		// recovery high-water mark (e.g. after a timeout's go-back-N
		// resent already-received segments) must not re-enter fast
		// retransmit.
		return
	}
	if f.dupAcks == 3 {
		// Fast retransmit. Whether the dup ACKs stem from real loss or
		// from reordering after a path shortened, the sender cannot tell —
		// the paper's point about loss being a noisy signal on LEO paths.
		f.FastRetxCount++
		f.ssthresh = math.Max(float64(f.flightSize())/2, 2)
		f.cwnd = f.ssthresh + 3
		f.inRecovery = true
		f.partialAckSeen = false
		f.recover = f.sndNxt
		if f.cfg.SACK {
			f.snd.clear(segSackRetx)
			f.snd.slot(f.sndUna, f.sndUna).flags |= segSackRetx
		}
		f.sendSegment(f.sndUna, true)
		f.logCwnd()
		f.armRTO()
	}
}

// sampleRTT feeds one RTT measurement into the estimator, the RTT log (with
// RecordLogs), and Vegas' delay tracking.
func (f *TCPFlow) sampleRTT(rtt sim.Time) {
	r := rtt.Seconds()
	if f.cfg.RecordLogs {
		f.RTTLog.Add(f.clk.Now(), r)
	}
	if f.srtt == 0 {
		f.srtt = r
		f.rttvar = r / 2
	} else {
		const alpha, beta = 0.125, 0.25
		f.rttvar = (1-beta)*f.rttvar + beta*math.Abs(f.srtt-r)
		f.srtt = (1-alpha)*f.srtt + alpha*r
	}
	rto := sim.Seconds(f.srtt + 4*f.rttvar)
	if rto < f.cfg.MinRTO {
		rto = f.cfg.MinRTO
	}
	if rto > f.cfg.MaxRTO {
		rto = f.cfg.MaxRTO
	}
	f.rto = rto

	if r < f.baseRTT {
		f.baseRTT = r
	}
	if r < f.vegasMinRTT {
		f.vegasMinRTT = r
	}
	f.vegasCnt++
}

// vegasUpdate runs the Vegas once-per-RTT window adjustment, falling back to
// slow start before the first RTT estimate.
func (f *TCPFlow) vegasUpdate(newly int64) {
	if f.sndUna < f.vegasBeg {
		// Still inside the current RTT window: Vegas holds cwnd, except in
		// slow start where it grows like Reno until gamma is exceeded.
		if f.cwnd < f.ssthresh {
			f.cwnd += float64(newly)
		}
		return
	}
	// One RTT elapsed: evaluate.
	f.vegasBeg = f.sndNxt
	if f.vegasCnt == 0 || math.IsInf(f.vegasMinRTT, 1) || f.baseRTT == 0 {
		if f.cwnd < f.ssthresh {
			f.cwnd += float64(newly)
		}
		return
	}
	// diff = cwnd * (rtt - baseRTT) / rtt, in segments: the extra segments
	// this flow keeps queued in the network.
	rtt := f.vegasMinRTT
	diff := f.cwnd * (rtt - f.baseRTT) / rtt
	if f.cwnd < f.ssthresh {
		// Slow start: leave it once the queue estimate exceeds gamma.
		if diff > f.cfg.VegasGamma {
			f.cwnd = math.Max(f.cwnd-diff, 2)
			f.ssthresh = math.Max(math.Min(f.ssthresh, f.cwnd-1), 2)
		} else {
			f.cwnd += float64(newly)
		}
	} else {
		switch {
		case diff > f.cfg.VegasBeta:
			f.cwnd--
			// Keep ssthresh below the shrinking window so the flow stays
			// in congestion avoidance rather than bouncing back into slow
			// start (as in ns-3's TcpVegas).
			f.ssthresh = math.Max(math.Min(f.ssthresh, f.cwnd-1), 2)
		case diff < f.cfg.VegasAlpha:
			f.cwnd++
		}
	}
	if f.cwnd < 2 {
		f.cwnd = 2
	}
	f.vegasMinRTT = math.Inf(1)
	f.vegasCnt = 0
}

// ---- Retransmission timer ----

func (f *TCPFlow) armRTO() {
	d := f.rto << uint(f.backoff)
	if d > f.cfg.MaxRTO {
		d = f.cfg.MaxRTO
	}
	f.rtoTimer.Reset(d)
}

func (f *TCPFlow) cancelRTO() { f.rtoTimer.Stop() }

// onTimeout handles an RTO expiry: multiplicative decrease to one segment
// and go-back-N from the first unacknowledged segment.
func (f *TCPFlow) onTimeout() {
	if f.flightSize() == 0 {
		return // nothing outstanding
	}
	f.TimeoutCount++
	if f.cfg.Algorithm == BBR {
		f.bbr.inRTORecovery = true
	} else {
		f.ssthresh = math.Max(float64(f.flightSize())/2, 2)
		f.cwnd = 1
	}
	f.dupAcks = 0
	f.inRecovery = false
	f.partialAckSeen = false
	// Dup ACKs for anything sent before this timeout must not trigger a
	// new fast retransmit (RFC 6582 careful variant).
	f.recover = f.sndNxt
	f.sndNxt = f.sndUna
	f.snd.clear(segSackRetx)
	if f.backoff < 16 {
		f.backoff++
	}
	f.logCwnd()
	if f.cfg.Algorithm != BBR {
		f.trySend()
	}
	f.armRTO()
}

// processSACK folds received SACK blocks into the scoreboard.
func (f *TCPFlow) processSACK(blocks [][2]int64) {
	for _, b := range blocks {
		for s := max(b[0], f.sndUna); s < b[1]; s++ {
			if sl := f.snd.slot(f.sndUna, s); sl.flags&segSacked == 0 {
				sl.flags |= segSacked
				f.highSack = max(f.highSack, s+1)
			}
		}
	}
}

// retransmitHole resends the lowest hole below the SACK high-water mark
// that has not already been repaired this recovery. It reports whether a
// retransmission was sent.
func (f *TCPFlow) retransmitHole() bool {
	s, ok := f.nextHole()
	if ok {
		f.sendSegment(s, true)
	}
	return ok
}

// nextHole finds the lowest segment below the SACK high-water mark that is
// neither sacked nor repaired this recovery, and marks it repaired.
func (f *TCPFlow) nextHole() (int64, bool) {
	for s := f.sndUna; s < f.highSack; s++ {
		if sl := f.snd.slot(f.sndUna, s); sl.flags&(segSacked|segSackRetx) == 0 {
			sl.flags |= segSackRetx
			return s, true
		}
	}
	return 0, false
}

// String describes the flow.
func (f *TCPFlow) String() string {
	return fmt.Sprintf("tcp[%s %d->%d flow=%d]", f.cfg.Algorithm, f.SrcGS, f.DstGS, f.FlowID)
}
