package experiments

import (
	"math"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/core"
	"hypatia/internal/groundstation"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
	"hypatia/internal/viz"
)

// BentPipeResult is the Appendix A study (Figs 16-19): the Paris-Moscow
// connection over Kuiper K1 with ISLs versus bent-pipe connectivity over a
// grid of ground-station relays.
type BentPipeResult struct {
	// Computed RTT series at 1 s steps for both modes (Fig 18c).
	ISLComputedRTT, BentComputedRTT []float64

	// TCP flow logs (Figs 18a, 18b, 19a, 19b).
	ISLFlow, BentFlow *transport.TCPFlow

	// Goodput for both modes (Fig 19c).
	ISLGoodput, BentGoodput float64

	// Path snapshots at t=0 (Figs 16a, 16b).
	ISLPathSVG, BentPathSVG string
}

// BentPipeConfig parameterizes the Appendix A experiment.
type BentPipeConfig struct {
	Scale Scale
	// Relay grid dimensions between the endpoints (paper: a grid of
	// candidate relays between Paris and Moscow).
	GridRows, GridCols int
	MarginDeg          float64
}

func (c BentPipeConfig) withDefaults() BentPipeConfig {
	if c.Scale.Duration == 0 {
		c.Scale = PaperScale()
	}
	if c.GridRows == 0 {
		c.GridRows = 5
	}
	if c.GridCols == 0 {
		c.GridCols = 8
	}
	if c.MarginDeg == 0 {
		c.MarginDeg = 3
	}
	return c
}

// AppendixBentPipe compares ISL and bent-pipe connectivity for a
// long-lived Paris-Moscow TCP NewReno flow over Kuiper K1 (Appendix A of
// the paper): bent-pipe paths bounce through ground-station relays instead
// of ISLs, adding ~5 ms of RTT, and the shared satellite GSL queue couples
// data packets with returning ACKs, changing TCP's bottleneck behavior.
func AppendixBentPipe(cfg BentPipeConfig) (*BentPipeResult, *Report, error) {
	cfg = cfg.withDefaults()
	res := &BentPipeResult{}

	paris := groundstation.MustByName(PaperCities(), "Paris")
	moscow := groundstation.MustByName(PaperCities(), "Moscow")

	// Endpoint set for the bent-pipe mode: the two endpoints plus the relay
	// grid.
	endpoints := []groundstation.GS{
		{ID: 0, Name: "Paris", Position: paris.Position},
		{ID: 1, Name: "Moscow", Position: moscow.Position},
	}
	relays, err := groundstation.RelayGrid(paris.Position, moscow.Position,
		cfg.GridRows, cfg.GridCols, cfg.MarginDeg, 2)
	if err != nil {
		return nil, nil, err
	}
	bentGSes := append(append([]groundstation.GS{}, endpoints...), relays...)

	duration := sim.Seconds(cfg.Scale.Duration)

	// ISL mode.
	islCfg := constellation.Kuiper()
	islRun, err := core.NewRun(core.RunConfig{
		Constellation:  islCfg,
		GroundStations: endpoints,
		Duration:       duration,
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		return nil, nil, err
	}
	res.ISLComputedRTT = analysis.RTTSeries(islRun.Topo, 0, 1, cfg.Scale.Duration, 1)
	if p, _ := islRun.Topo.Snapshot(0).Path(0, 1); p != nil {
		res.ISLPathSVG = viz.PathMapSVG(islRun.Topo, p, 0, 0, 0)
	}
	res.ISLFlow = transport.NewTCPFlow(islRun.Net, islRun.Flows, 0, 1, transport.TCPConfig{RecordLogs: true})
	res.ISLFlow.Start()
	islRun.Execute()
	res.ISLGoodput = res.ISLFlow.GoodputBps(duration)

	// Bent-pipe mode: no ISLs, relays available.
	bentCfg := constellation.Kuiper()
	bentCfg.ISLMode = constellation.ISLNone
	bentRun, err := core.NewRun(core.RunConfig{
		Constellation:  bentCfg,
		GroundStations: bentGSes,
		Duration:       duration,
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		return nil, nil, err
	}
	res.BentComputedRTT = analysis.RTTSeries(bentRun.Topo, 0, 1, cfg.Scale.Duration, 1)
	if p, _ := bentRun.Topo.Snapshot(0).Path(0, 1); p != nil {
		res.BentPathSVG = viz.PathMapSVG(bentRun.Topo, p, 0, 0, 0)
	}
	res.BentFlow = transport.NewTCPFlow(bentRun.Net, bentRun.Flows, 0, 1, transport.TCPConfig{RecordLogs: true})
	res.BentFlow.Start()
	bentRun.Execute()
	res.BentGoodput = res.BentFlow.GoodputBps(duration)

	rep := &Report{Title: "Appendix A (Figs 16-19): ISL vs bent-pipe connectivity, Paris-Moscow (Kuiper K1)"}
	islMean, islN := meanFinite(res.ISLComputedRTT)
	bentMean, bentN := meanFinite(res.BentComputedRTT)
	rep.Addf("computed RTT: ISL %.1f ms (%d samples), bent-pipe %.1f ms (%d samples), delta %.1f ms",
		islMean*1e3, islN, bentMean*1e3, bentN, (bentMean-islMean)*1e3)
	rep.Addf("TCP goodput: ISL %.3f Mbps, bent-pipe %.3f Mbps", res.ISLGoodput/1e6, res.BentGoodput/1e6)
	rep.Addf("fast retransmits (reordering-triggered cwnd cuts): ISL %d, bent-pipe %d",
		res.ISLFlow.FastRetxCount, res.BentFlow.FastRetxCount)
	rep.Addf("TCP max est. RTT: ISL %.1f ms, bent-pipe %.1f ms",
		res.ISLFlow.RTTLog.Max()*1e3, res.BentFlow.RTTLog.Max()*1e3)
	return res, rep, nil
}

func meanFinite(xs []float64) (float64, int) {
	total, n := 0.0, 0
	for _, x := range xs {
		if !math.IsInf(x, 1) && !math.IsNaN(x) {
			total += x
			n++
		}
	}
	if n == 0 {
		return math.NaN(), 0
	}
	return total / float64(n), n
}
