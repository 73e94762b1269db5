// Package transport implements the end-to-end protocols Hypatia's
// experiments run over the packet simulator: a TCP with NewReno (loss-based),
// Vegas (delay-based) and BBR (model-based) congestion control, a paced
// constant-bit-rate UDP source, and a ping application.
//
// Headers ride by value in the packet's Seq, Ack and Flags words
// (sim.Network.SendHeader), so a data segment, an ACK or an echo allocates
// nothing, and each TCP end keeps its per-segment state in a ring over its
// sequence window. What grows with virtual time is only what a figure
// reads, and only where it asks: a TCP flow with TCPConfig.RecordLogs keeps
// its per-ACK CwndLog, RTTLog and AckedLog and its ArrivalLog (the single
// flows Figs 3-5 and Appendix A plot), and a Pinger one PingResult per
// request. A default TCP flow and a UDP sink only count, so a many-flow run
// holds the same memory at any horizon.
package transport

import (
	"math"
	"sort"

	"hypatia/internal/sim"
)

// Sample is one point of a time series.
type Sample struct {
	T sim.Time
	V float64
}

// Series is an append-only time series.
type Series struct {
	Samples []Sample
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.Samples = append(s.Samples, Sample{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Last returns the most recent sample value, or 0 when empty.
func (s *Series) Last() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].V
}

// Min returns the minimum value, or +Inf when empty.
func (s *Series) Min() float64 {
	min := inf
	for _, smp := range s.Samples {
		if smp.V < min {
			min = smp.V
		}
	}
	return min
}

// Max returns the maximum value, or -Inf when empty.
func (s *Series) Max() float64 {
	max := -inf
	for _, smp := range s.Samples {
		if smp.V > max {
			max = smp.V
		}
	}
	return max
}

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		out[i] = smp.V
	}
	return out
}

// Windowed aggregates the series into fixed windows of the given width,
// summing values per window, from time 0 through end. It is used to turn
// per-ACK byte counts into throughput curves (value/window width).
func (s *Series) Windowed(width, end sim.Time) []Sample {
	if width <= 0 {
		panic("transport: non-positive window width")
	}
	n := int(end / width)
	if end%width != 0 {
		n++
	}
	out := make([]Sample, n)
	for i := range out {
		out[i].T = sim.Time(i) * width
	}
	for _, smp := range s.Samples {
		i := int(smp.T / width)
		if i >= 0 && i < n {
			out[i].V += smp.V
		}
	}
	return out
}

// Percentile returns the p-quantile (0..1) of the sample values, using
// nearest-rank on a sorted copy. Empty series return 0.
func (s *Series) Percentile(p float64) float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	vals := s.Values()
	sort.Float64s(vals)
	idx := int(p * float64(len(vals)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}

var inf = math.Inf(1)

// FlowIDs hands out unique flow identifiers for one simulation run.
type FlowIDs struct{ next uint32 }

// Next returns a fresh flow id (starting at 1; 0 is reserved as invalid).
func (f *FlowIDs) Next() uint32 {
	f.next++
	return f.next
}
