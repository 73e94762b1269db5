package transport

import (
	"math"

	"hypatia/internal/sim"
)

// The paper (§4.2) closes its congestion-control discussion with: "once a
// mature implementation of BBR is available, evaluating its behavior on LEO
// networks would be of high interest". This file provides that third
// algorithm: a BBRv1-style model-based controller. Instead of reacting to
// loss (NewReno) or to delay against a stale floor (Vegas), BBR explicitly
// estimates the bottleneck bandwidth (windowed-max delivery rate) and the
// round-trip propagation delay (windowed-min RTT, re-probed every 10 s) and
// paces transmission at their product. The 10-second RTprop window is what
// makes it interesting on LEO paths: a path-change-induced RTT shift ages
// out of the filter instead of poisoning it forever, Vegas's failure mode.
//
// Simplifications relative to BBRv1 (documented, not hidden): segment
// granularity, no header/ACK aggregation compensation, and the four-phase
// state machine below (Startup, Drain, ProbeBW with the standard 8-phase
// gain cycle, ProbeRTT).

// bbrState is the BBR state machine phase.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

const (
	bbrHighGain     = 2.885 // 2/ln(2), BBRv1 startup gain
	bbrCycleLen     = 8
	bbrBtlBwWindow  = 10              // rounds over which max bandwidth is remembered
	bbrRTpropWindow = 10 * sim.Second // min-RTT memory
	bbrProbeRTTTime = 200 * sim.Millisecond
	bbrMinCwnd      = 4
)

// bbrPacingGains is the ProbeBW gain cycle.
var bbrPacingGains = [bbrCycleLen]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// bbr holds the sender-side BBR model.
type bbr struct {
	state      bbrState
	cycleIndex int
	cycleStamp sim.Time

	// Bottleneck bandwidth filter: windowed max of delivery-rate samples
	// (segments/second), per round.
	btlBw      float64
	bwSamples  [bbrBtlBwWindow]float64
	roundCount int64
	roundStart int64 // sndUna that ends the current round

	// Full-pipe detection (exit Startup).
	fullBw      float64
	fullBwCount int

	// inRTORecovery caps the window at one segment from a retransmission
	// timeout until new data is acknowledged (BBRv1's conservation
	// response to an RTO) — on LEO outages this throttles the pacer to
	// one probe per RTO instead of spraying at the modeled rate.
	inRTORecovery bool

	// RTprop filter.
	rtProp      float64 // seconds
	rtPropStamp sim.Time
	probeRTTEnd sim.Time
	probeRTTMin float64 // cleanest RTT seen during the current ProbeRTT

	// Delivery accounting for rate samples.
	delivered   int64              // cumulative segments delivered (acked)
	deliveredAt map[int64]int64    // per-segment: delivered count at send time
	sentStamp   map[int64]sim.Time // per-segment send time (kept separate from sentAt for retransmissions)

	pacing *sim.Timer // fires bbrPacedSend; set by NewTCPFlow
}

func newBBR() *bbr {
	return &bbr{
		rtProp:      math.Inf(1),
		deliveredAt: map[int64]int64{},
		sentStamp:   map[int64]sim.Time{},
	}
}

// pacingRate returns the current send rate in segments/second.
func (f *TCPFlow) bbrPacingRate() float64 {
	b := f.bbr
	gain := bbrHighGain
	switch b.state {
	case bbrDrain:
		gain = 1 / bbrHighGain
	case bbrProbeBW:
		gain = bbrPacingGains[b.cycleIndex]
	case bbrProbeRTT:
		gain = 1
	}
	bw := b.btlBw
	if bw == 0 {
		// No estimate yet: derive one from the initial window and either
		// the measured or a nominal 100 ms RTT.
		rtt := b.rtProp
		if math.IsInf(rtt, 1) {
			rtt = 0.1
		}
		bw = f.cfg.InitialCwnd / rtt
	}
	return gain * bw
}

// bbrCwnd returns the inflight cap in segments.
func (f *TCPFlow) bbrCwnd() float64 {
	b := f.bbr
	if b.inRTORecovery {
		return 1
	}
	if b.state == bbrProbeRTT {
		return bbrMinCwnd
	}
	if b.btlBw == 0 || math.IsInf(b.rtProp, 1) {
		return f.cfg.InitialCwnd
	}
	bdp := b.btlBw * b.rtProp
	gain := 2.0 // BBRv1 cwnd_gain in ProbeBW
	if b.state == bbrStartup || b.state == bbrDrain {
		gain = bbrHighGain
	}
	return math.Max(gain*bdp, bbrMinCwnd)
}

// bbrPacedSend transmits one segment if the inflight cap allows, then
// re-arms the timer at the pacing interval.
func (f *TCPFlow) bbrPacedSend() {
	b := f.bbr
	rate := f.bbrPacingRate()
	interval := sim.Seconds(1 / rate)
	if interval < sim.Microsecond {
		interval = sim.Microsecond
	}
	canSend := float64(f.flightSize()) < f.bbrCwnd() &&
		(f.cfg.MaxSegments == 0 || f.sndNxt < f.cfg.MaxSegments)
	if canSend {
		seq := f.sndNxt
		if f.cfg.SACK && f.snd.at(f.sndUna, seq).flags&segSacked != 0 {
			f.sndNxt++ // skip already-received data after go-back-N
		} else {
			b.deliveredAt[seq] = b.delivered
			b.sentStamp[seq] = f.clk.Now()
			f.sendSegment(seq, false)
			f.sndNxt++
			f.armRTO()
		}
	}
	b.pacing.Reset(interval)
}

// bbrSample feeds the model the delivery of a cumulative ACK covering
// [sndUna, ack). onNewAck calls it before the ACK clears the scoreboard,
// whose retransmission marks the sample's Karn check reads.
func (f *TCPFlow) bbrSample(ack int64) {
	b := f.bbr
	now := f.clk.Now()
	b.delivered += ack - f.sndUna

	// Delivery-rate sample from the newest acked segment with send-time
	// bookkeeping (skip retransmitted segments, whose ACK is ambiguous).
	for seq := ack - 1; seq >= f.sndUna; seq-- {
		stamp, ok := b.sentStamp[seq]
		if !ok {
			continue
		}
		if f.snd.at(f.sndUna, seq).flags&segRetx != 0 {
			break
		}
		elapsed := (now - stamp).Seconds()
		if elapsed > 0 {
			sample := float64(b.delivered-b.deliveredAt[seq]) / elapsed
			f.bbrUpdateBtlBw(sample)
		}
		// RTprop from the same segment: only ever move the floor down, or
		// re-measure it inside ProbeRTT with the pipe drained. Accepting an
		// arbitrary (queued) sample on expiry would inflate the model's BDP
		// and lock in standing queue.
		rtt := elapsed
		if rtt < b.rtProp {
			b.rtProp = rtt
			b.rtPropStamp = now
		}
		if b.state == bbrProbeRTT && rtt < b.probeRTTMin {
			b.probeRTTMin = rtt
		}
		break
	}
	for seq := f.sndUna; seq < ack; seq++ {
		delete(b.deliveredAt, seq)
		delete(b.sentStamp, seq)
	}
}

// bbrOnAck advances the model's round and state on a cumulative ACK up to
// ack, once onNewAck has moved the window.
func (f *TCPFlow) bbrOnAck(ack int64) {
	b := f.bbr
	now := f.clk.Now()
	b.inRTORecovery = false

	// Round accounting: a round ends when data sent after the previous
	// round's end is acknowledged.
	if ack > b.roundStart {
		b.roundStart = f.sndNxt
		b.roundCount++
		b.bwSamples[b.roundCount%bbrBtlBwWindow] = 0
	}

	f.bbrAdvanceState(now)
}

// bbrUpdateBtlBw folds a delivery-rate sample into the windowed-max filter.
func (f *TCPFlow) bbrUpdateBtlBw(sample float64) {
	b := f.bbr
	idx := b.roundCount % bbrBtlBwWindow
	if sample > b.bwSamples[idx] {
		b.bwSamples[idx] = sample
	}
	max := 0.0
	for _, s := range b.bwSamples {
		if s > max {
			max = s
		}
	}
	b.btlBw = max
}

// bbrAdvanceState runs the state machine.
func (f *TCPFlow) bbrAdvanceState(now sim.Time) {
	b := f.bbr
	switch b.state {
	case bbrStartup:
		// Full pipe: bandwidth grew <25% for 3 consecutive rounds.
		if b.btlBw > b.fullBw*1.25 {
			b.fullBw = b.btlBw
			b.fullBwCount = 0
		} else if b.roundCount > 0 {
			b.fullBwCount++
			if b.fullBwCount >= 3 {
				b.state = bbrDrain
			}
		}
	case bbrDrain:
		if !math.IsInf(b.rtProp, 1) && float64(f.flightSize()) <= b.btlBw*b.rtProp {
			b.state = bbrProbeBW
			b.cycleIndex = 0
			b.cycleStamp = now
		}
	case bbrProbeBW:
		// Advance the gain cycle once per RTprop.
		if !math.IsInf(b.rtProp, 1) && now-b.cycleStamp > sim.Seconds(b.rtProp) {
			b.cycleIndex = (b.cycleIndex + 1) % bbrCycleLen
			b.cycleStamp = now
		}
		// Enter ProbeRTT when the RTprop estimate has gone stale.
		if now-b.rtPropStamp > bbrRTpropWindow {
			b.state = bbrProbeRTT
			b.probeRTTEnd = now + bbrProbeRTTTime
			b.probeRTTMin = math.Inf(1)
		}
	case bbrProbeRTT:
		if now >= b.probeRTTEnd {
			if !math.IsInf(b.probeRTTMin, 1) {
				b.rtProp = b.probeRTTMin // fresh floor measured while drained
			}
			b.rtPropStamp = now
			if b.fullBwCount >= 3 {
				b.state = bbrProbeBW
				b.cycleIndex = 0
				b.cycleStamp = now
			} else {
				b.state = bbrStartup
			}
		}
	}
	f.cwnd = f.bbrCwnd() // expose the cap in the cwnd log
}
