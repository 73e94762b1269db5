package experiments

import (
	"math"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/core"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

// PaperPairs are the three connections §4 of the paper examines in depth.
var PaperPairs = [][2]string{
	{"Rio de Janeiro", "Saint Petersburg"},
	{"Manila", "Dalian"},
	{"Istanbul", "Nairobi"},
}

// PathStudy is the per-connection result behind Figs 3 and 4: measured ping
// RTTs, snapshot-computed RTTs, TCP per-packet RTTs, the congestion-window
// series, and the BDP+Q reference curve.
type PathStudy struct {
	Name     string
	Src, Dst int

	Step        float64   // computed-series granularity, seconds
	ComputedRTT []float64 // snapshot shortest-path RTT per step (+Inf = disconnected)

	Pings []transport.PingResult

	TCPRTT transport.Series // sender-measured per-packet RTT
	Cwnd   transport.Series // congestion window, segments
	// BDPPlusQ per step: the max packets in flight without drops, from the
	// computed RTT, the line rate, and the queue size (Fig 4's overlay).
	BDPPlusQ []float64

	DisconnectedSteps int
}

// pairRun builds a Kuiper-K1 run restricted to one pair.
func pairRun(duration sim.Time, src, dst int) (*core.Run, error) {
	return core.NewRun(core.RunConfig{
		Constellation:  constellation.Kuiper(),
		GroundStations: PaperCities(),
		Duration:       duration,
		ActiveDstGS:    []int{src, dst},
	})
}

// Fig3and4PathStudies runs the paper's three deep-dive connections over
// Kuiper K1: pings at pingInterval (1 ms in the paper) in one run, and a
// lone long-running TCP NewReno flow in a second run, plus the
// snapshot-computed RTT series. The Rio de Janeiro–Saint Petersburg pair
// exhibits a disconnection window when Saint Petersburg sees no satellite.
func Fig3and4PathStudies(scale Scale, pingInterval sim.Time) ([]*PathStudy, *Report, error) {
	var studies []*PathStudy
	gss := PaperCities()
	for _, pair := range PaperPairs {
		src, dst := PairByNames(gss, pair[0], pair[1])
		study := &PathStudy{Name: pair[0] + " to " + pair[1], Src: src, Dst: dst, Step: 0.1}

		// Computed series (the networkx-analog curve of Fig 3).
		pingRun, err := pairRun(sim.Seconds(scale.Duration), src, dst)
		if err != nil {
			return nil, nil, err
		}
		study.ComputedRTT = analysis.RTTSeries(pingRun.Topo, src, dst, scale.Duration, study.Step)
		for _, r := range study.ComputedRTT {
			if math.IsInf(r, 1) {
				study.DisconnectedSteps++
			}
		}

		// Ping run.
		pinger := transport.NewPinger(pingRun.Net, pingRun.Flows, src, dst,
			transport.PingConfig{Interval: pingInterval})
		pinger.Start()
		pingRun.Execute()
		study.Pings = pinger.Results()

		// Lone TCP NewReno run (no competing traffic).
		tcpRun, err := pairRun(sim.Seconds(scale.Duration), src, dst)
		if err != nil {
			return nil, nil, err
		}
		flow := transport.NewTCPFlow(tcpRun.Net, tcpRun.Flows, src, dst, transport.TCPConfig{RecordLogs: true})
		flow.Start()
		tcpRun.Execute()
		study.TCPRTT = flow.RTTLog
		study.Cwnd = flow.CwndLog

		// BDP+Q overlay: BDP in 1500-byte packets at 10 Mb/s for the
		// computed RTT, plus the 100-packet queue.
		rate := tcpRun.Cfg.Net.GSLRateBps
		q := float64(tcpRun.Cfg.Net.QueuePackets)
		study.BDPPlusQ = make([]float64, len(study.ComputedRTT))
		for i, rtt := range study.ComputedRTT {
			if math.IsInf(rtt, 1) {
				study.BDPPlusQ[i] = math.Inf(1)
				continue
			}
			study.BDPPlusQ[i] = rate*rtt/(8*1500) + q
		}
		studies = append(studies, study)
	}

	rep := &Report{Title: "Figs 3-4: RTT fluctuations and congestion-window evolution (Kuiper K1)"}
	rep.Addf("%-36s %9s %9s %9s %10s %8s %9s", "pair", "minRTT", "maxRTT", "ping/comp", "outage", "cwndMax", "fastRetx")
	for _, s := range studies {
		minC, maxC := math.Inf(1), 0.0
		for _, r := range s.ComputedRTT {
			if !math.IsInf(r, 1) {
				minC = math.Min(minC, r)
				maxC = math.Max(maxC, r)
			}
		}
		// Agreement between ping measurements and computed RTTs: mean
		// relative gap over replied pings (paper: "match closely").
		agree := pingComputedAgreement(s)
		outage := float64(s.DisconnectedSteps) * s.Step
		rep.Addf("%-36s %7.1fms %7.1fms %8.1f%% %8.1fs %8.0f %9d",
			s.Name, minC*1e3, maxC*1e3, agree*100, outage, s.Cwnd.Max(), countCwndCuts(s.Cwnd))
	}
	return studies, rep, nil
}

// pingComputedAgreement returns the fraction of replied pings within 10% or
// 3 ms of the computed RTT at their send time.
func pingComputedAgreement(s *PathStudy) float64 {
	if len(s.Pings) == 0 {
		return 0
	}
	match, replied := 0, 0
	for _, p := range s.Pings {
		if !p.Replied {
			continue
		}
		replied++
		idx := int(p.SentAt.Seconds() / s.Step)
		if idx >= len(s.ComputedRTT) {
			idx = len(s.ComputedRTT) - 1
		}
		comp := s.ComputedRTT[idx]
		if math.IsInf(comp, 1) {
			continue
		}
		got := p.RTT.Seconds()
		if math.Abs(got-comp) < 0.003 || math.Abs(got-comp)/comp < 0.10 {
			match++
		}
	}
	if replied == 0 {
		return 0
	}
	return float64(match) / float64(replied)
}

// countCwndCuts counts multiplicative decreases (>=40% drops) in a cwnd log.
func countCwndCuts(cwnd transport.Series) int {
	cuts := 0
	for i := 1; i < cwnd.Len(); i++ {
		prev, cur := cwnd.Samples[i-1].V, cwnd.Samples[i].V
		if prev > 10 && cur < 0.6*prev {
			cuts++
		}
	}
	return cuts
}

// CCStudy is the Fig 5 result for one algorithm on Rio de Janeiro–Saint
// Petersburg: per-packet RTT, congestion window, and 100 ms-windowed
// throughput.
type CCStudy struct {
	Algorithm  transport.CCAlgorithm
	RTT        transport.Series
	Cwnd       transport.Series
	Throughput []transport.Sample // bits/s per 100 ms window
	Goodput    float64            // average over the run, bits/s
}

// Fig5LossVsDelayCC runs the Rio de Janeiro–Saint Petersburg connection
// once with NewReno and once with Vegas, each alone in the network, and
// reports how loss- and delay-based congestion control each fail on a
// changing LEO path: NewReno keeps queues full (high RTT), Vegas misreads
// the RTT rise after a path change as congestion and its throughput
// collapses.
func Fig5LossVsDelayCC(scale Scale) (map[transport.CCAlgorithm]*CCStudy, *Report, error) {
	gss := PaperCities()
	src, dst := PairByNames(gss, "Rio de Janeiro", "Saint Petersburg")
	out := map[transport.CCAlgorithm]*CCStudy{}
	// BBR is included as the third algorithm the paper asks for ("once a
	// mature implementation of BBR is available, evaluating its behavior
	// on LEO networks would be of high interest").
	for _, alg := range []transport.CCAlgorithm{transport.NewReno, transport.Vegas, transport.BBR} {
		run, err := pairRun(sim.Seconds(scale.Duration), src, dst)
		if err != nil {
			return nil, nil, err
		}
		flow := transport.NewTCPFlow(run.Net, run.Flows, src, dst, transport.TCPConfig{Algorithm: alg, RecordLogs: true})
		flow.Start()
		run.Execute()
		window := 100 * sim.Millisecond
		windowed := flow.AckedLog.Windowed(window, run.Cfg.Duration)
		thr := make([]transport.Sample, len(windowed))
		for i, w := range windowed {
			thr[i] = transport.Sample{T: w.T, V: w.V * 8 / window.Seconds()}
		}
		out[alg] = &CCStudy{
			Algorithm:  alg,
			RTT:        flow.RTTLog,
			Cwnd:       flow.CwndLog,
			Throughput: thr,
			Goodput:    flow.GoodputBps(run.Cfg.Duration),
		}
	}
	rep := &Report{Title: "Fig 5: loss- vs delay-based congestion control (Rio de Janeiro - Saint Petersburg)"}
	rep.Addf("%-8s %10s %10s %10s %12s", "cc", "minRTT", "maxRTT", "cwnd p95", "goodput")
	for _, alg := range []transport.CCAlgorithm{transport.NewReno, transport.Vegas, transport.BBR} {
		s := out[alg]
		rep.Addf("%-8s %8.1fms %8.1fms %10.1f %9.3f Mbps",
			alg, s.RTT.Min()*1e3, s.RTT.Max()*1e3, s.Cwnd.Percentile(0.95), s.Goodput/1e6)
	}
	return out, rep, nil
}
