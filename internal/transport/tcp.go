package transport

import (
	"fmt"
	"math"
	"sort"

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

	// DelayedAcks enables the receiver's delayed-ACK behavior (ACK every
	// second in-order segment or after DelAckTimeout). The paper notes
	// delayed ACKs cause RTT oscillations at low rates but do not change
	// the headline behavior; they are on by default as in ns-3.
	DelayedAcks   bool
	NoDelayedAcks bool     // set to force delayed ACKs off
	DelAckTimeout sim.Time // default 200 ms

	// Vegas parameters, in segments (standard alpha=2, beta=4, gamma=1).
	VegasAlpha float64
	VegasBeta  float64
	VegasGamma float64

	// MaxSegments bounds the amount of data to send; 0 means a
	// long-running flow that never exhausts data.
	MaxSegments int64

	// TrackReordering records the receiver's arrival order of data
	// segments (one int64 per packet) so AnalyzeReordering can quantify
	// path-change-induced reordering. Off by default to keep large
	// many-flow runs lean.
	TrackReordering bool

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
	c.DelayedAcks = !c.NoDelayedAcks
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

// tcpSegment is the wire payload of a TCP packet in the simulator. Sequence
// numbers count whole segments (MSS units), which keeps the bookkeeping at
// the same granularity the paper plots (congestion window in packets).
type tcpSegment struct {
	isAck bool
	seq   int64 // data: segment sequence number
	ack   int64 // ack: next expected segment (cumulative)
	retx  bool  // data: this is a retransmission (Karn's rule)
	// sack carries up to 4 selective-acknowledgment blocks [lo, hi)
	// describing out-of-order data the receiver holds (RFC 2018), when the
	// flow has SACK enabled.
	sack [][2]int64
}

// TCPFlow is a unidirectional TCP connection between two ground stations:
// data flows src->dst, ACKs dst->src. It implements sender, receiver, and
// the selected congestion-control algorithm, and records the time series
// the paper's per-connection figures show.
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

	sentAt   map[int64]sim.Time // first-transmission time per in-flight segment
	everRetx map[int64]bool     // segments ever retransmitted (no RTT sample)
	rtoTimer *sim.Timer         // retransmission timer; fires onTimeout
	srtt     float64            // smoothed RTT, seconds (0 until first sample)
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

	// SACK scoreboard (sender side): segments above sndUna the receiver
	// has reported holding, and the hole-repair cursor for the current
	// recovery.
	sacked   map[int64]bool
	sackRetx map[int64]bool // holes already repaired this recovery
	highSack int64          // highest sacked segment + 1

	// Receiver state.
	rcvNxt    int64
	ooo       map[int64]bool // out-of-order segments received
	delAckCnt int
	// delAckTimer acknowledges a lone segment that no second one follows. It
	// runs on the source station's clock like everything else of the flow
	// (RegisterFlow colocates the two ends): the owner is part of the
	// canonical event order.
	delAckTimer *sim.Timer
	// ArrivalLog is the receiver-side arrival order of data segment
	// sequence numbers (populated only with TrackReordering).
	ArrivalLog []int64

	// Metrics.
	CwndLog       Series // congestion window, segments
	RTTLog        Series // sender-measured per-packet RTT, seconds
	AckedLog      Series // newly acknowledged payload bytes per ACK (for throughput)
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
		sentAt:      map[int64]sim.Time{},
		everRetx:    map[int64]bool{},
		ooo:         map[int64]bool{},
		sacked:      map[int64]bool{},
		sackRetx:    map[int64]bool{},
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
	f.CwndLog.Add(f.clk.Now(), f.cwnd)
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
		if f.cfg.SACK && f.sacked[f.sndNxt] {
			f.sndNxt++
			continue
		}
		f.sendSegment(f.sndNxt, false)
		f.sndNxt++
	}
}

// sendSegment puts one data segment on the wire. Any send of a sequence
// that already left once counts as a retransmission (Karn's rule), even
// when reached through go-back-N's regular send path.
func (f *TCPFlow) sendSegment(seq int64, retx bool) {
	if _, dup := f.sentAt[seq]; dup || retx {
		f.everRetx[seq] = true
		f.RetxCount++
	} else {
		f.sentAt[seq] = f.clk.Now()
	}
	f.Net.Send(f.SrcGS, f.DstGS, f.FlowID, f.cfg.MSS+f.cfg.HeaderBytes,
		tcpSegment{seq: seq, retx: retx})
}

// ---- Receiver ----

// onReceiverPacket handles data arriving at the destination.
func (f *TCPFlow) onReceiverPacket(pkt *sim.Packet) {
	seg := pkt.Payload.(tcpSegment)
	if seg.isAck {
		return // stray ACK at receiver; cannot happen with distinct GSes
	}
	if f.cfg.TrackReordering {
		f.ArrivalLog = append(f.ArrivalLog, seg.seq)
	}
	hadOOO := len(f.ooo) > 0
	inOrder := false
	switch {
	case seg.seq == f.rcvNxt:
		f.rcvNxt++
		for f.ooo[f.rcvNxt] {
			delete(f.ooo, f.rcvNxt)
			f.rcvNxt++
		}
		inOrder = true
	case seg.seq > f.rcvNxt:
		f.ooo[seg.seq] = true // out of order: reordering or loss
	default:
		// Duplicate of already-received data (spurious retransmission).
	}

	// RFC 5681: ACK immediately while there is (or was) a sequence hole, so
	// the sender learns about filled gaps without delayed-ACK latency.
	if inOrder && f.cfg.DelayedAcks && !hadOOO && len(f.ooo) == 0 {
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

// sendAck emits a cumulative ACK for everything received in order, with
// SACK blocks describing out-of-order runs when enabled.
func (f *TCPFlow) sendAck() {
	f.delAckCnt = 0
	f.delAckTimer.Stop()
	seg := tcpSegment{isAck: true, ack: f.rcvNxt}
	if f.cfg.SACK && len(f.ooo) > 0 {
		seg.sack = f.sackBlocks()
	}
	f.Net.Send(f.DstGS, f.SrcGS, f.FlowID, f.cfg.AckBytes, seg)
}

// sackBlocks summarizes the out-of-order set as up to 4 [lo, hi) runs,
// lowest first.
func (f *TCPFlow) sackBlocks() [][2]int64 {
	seqs := make([]int64, 0, len(f.ooo))
	for s := range f.ooo {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var blocks [][2]int64
	for _, s := range seqs {
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
	seg := pkt.Payload.(tcpSegment)
	if !seg.isAck {
		return
	}
	f.AcksReceived++
	if f.cfg.SACK && len(seg.sack) > 0 {
		f.processSACK(seg.sack)
	}
	if seg.ack > f.sndUna {
		f.onNewAck(seg.ack)
	} else if f.flightSize() > 0 {
		f.onDupAck()
	}
}

// onNewAck processes an ACK advancing the window.
func (f *TCPFlow) onNewAck(ack int64) {
	prevUna := f.sndUna
	newly := ack - f.sndUna

	// RTT sampling from the most recent newly acknowledged segment that was
	// never retransmitted (Karn's rule). No samples during fast recovery,
	// and none from ACKs that advance by more than a delayed-ACK stride:
	// such jumps acknowledge segments that were stuck behind
	// retransmission holes, so their age measures the recovery, not the
	// path.
	if !f.inRecovery && newly <= 2 {
		for seq := ack - 1; seq >= f.sndUna; seq-- {
			t0, ok := f.sentAt[seq]
			if ok && !f.everRetx[seq] {
				f.sampleRTT(f.clk.Now() - t0)
				break
			}
			if ok {
				break // newest acked segment was retransmitted: no sample
			}
		}
	}
	for seq := f.sndUna; seq < ack; seq++ {
		delete(f.sentAt, seq)
		delete(f.everRetx, seq)
		delete(f.sacked, seq)
		delete(f.sackRetx, seq)
	}
	f.sndUna = ack
	// A cumulative ACK can land above sndNxt after a timeout's go-back-N
	// rewind (the ACK was for data in flight before the rewind). The
	// rewound-but-already-received segments must not be resent: pull
	// sndNxt forward so flight accounting stays consistent.
	if f.sndNxt < f.sndUna {
		f.sndNxt = f.sndUna
	}
	f.AckedSegments = ack
	f.AckedLog.Add(f.clk.Now(), float64(newly*int64(f.cfg.MSS)))
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
			f.bbrOnAck(prevUna, ack)
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
			f.sackRetx = map[int64]bool{}
			f.sackRetx[f.sndUna] = true
		}
		f.sendSegment(f.sndUna, true)
		f.logCwnd()
		f.armRTO()
	}
}

// sampleRTT feeds one RTT measurement into the estimator, the RTT log, and
// Vegas' delay tracking.
func (f *TCPFlow) sampleRTT(rtt sim.Time) {
	r := rtt.Seconds()
	f.RTTLog.Add(f.clk.Now(), r)
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
	f.sackRetx = map[int64]bool{}
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
		for s := b[0]; s < b[1]; s++ {
			if s >= f.sndUna && !f.sacked[s] {
				f.sacked[s] = true
				if s+1 > f.highSack {
					f.highSack = s + 1
				}
			}
		}
	}
}

// retransmitHole resends the lowest hole below the SACK high-water mark
// that has not already been repaired this recovery. It reports whether a
// retransmission was sent.
func (f *TCPFlow) retransmitHole() bool {
	for s := f.sndUna; s < f.highSack; s++ {
		if f.sacked[s] || f.sackRetx[s] {
			continue
		}
		f.sackRetx[s] = true
		f.sendSegment(s, true)
		return true
	}
	return false
}

// String describes the flow.
func (f *TCPFlow) String() string {
	return fmt.Sprintf("tcp[%s %d->%d flow=%d]", f.cfg.Algorithm, f.SrcGS, f.DstGS, f.FlowID)
}
