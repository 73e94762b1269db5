package experiments

import (
	"math"
	"strings"
	"testing"

	"hypatia/internal/sim"
)

func TestFig3and4PathStudiesSmall(t *testing.T) {
	studies, rep, err := Fig3and4PathStudies(Scale{Duration: 5}, 20*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 3 {
		t.Fatalf("studies = %d", len(studies))
	}
	for _, s := range studies {
		if len(s.ComputedRTT) != 51 {
			t.Errorf("%s: computed samples = %d", s.Name, len(s.ComputedRTT))
		}
		if len(s.Pings) == 0 {
			t.Errorf("%s: no pings", s.Name)
		}
		if s.Cwnd.Len() == 0 {
			t.Errorf("%s: no cwnd log", s.Name)
		}
		if len(s.BDPPlusQ) != len(s.ComputedRTT) {
			t.Errorf("%s: BDP+Q series mismatch", s.Name)
		}
		// The paper's validation: pings and computed RTTs match closely.
		if s.DisconnectedSteps < len(s.ComputedRTT) {
			if agree := pingComputedAgreement(s); agree < 0.8 {
				t.Errorf("%s: ping/computed agreement only %.0f%%", s.Name, agree*100)
			}
		}
		// BDP+Q: with 10 Mb/s and ~25-100 ms RTTs, BDP is 20-90 packets on
		// top of the 100-packet queue.
		for i, v := range s.BDPPlusQ {
			if math.IsInf(v, 1) {
				continue
			}
			if v < 100 || v > 300 {
				t.Errorf("%s: BDP+Q[%d] = %v implausible", s.Name, i, v)
				break
			}
		}
	}
	if !strings.Contains(rep.String(), "Rio de Janeiro") {
		t.Error("report missing pair rows")
	}
}

func TestFig10to15CrossTrafficSmall(t *testing.T) {
	res, rep, err := Fig10to15CrossTraffic(CrossTrafficConfig{
		Scale: Scale{Duration: 6, Pairs: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnusedBandwidth) == 0 || len(res.StaticUnused) == 0 {
		t.Fatal("missing unused-bandwidth series")
	}
	for w, v := range res.UnusedBandwidth {
		if math.IsNaN(v) {
			continue
		}
		if v < 0 || v > 10e6+1 {
			t.Errorf("unused[%d] = %v out of range", w, v)
		}
	}
	if len(res.NetworkLoads) == 0 {
		t.Error("no ISLs carried traffic")
	}
	for _, l := range res.NetworkLoads {
		if l.Utilization <= 0 || l.Utilization > 1.01 {
			t.Errorf("ISL %d->%d utilization %v", l.From, l.To, l.Utilization)
		}
	}
	if !strings.HasPrefix(res.Fig15SVG, "<svg") {
		t.Error("Fig 15 SVG malformed")
	}
	if !strings.Contains(rep.String(), "unused") {
		t.Error("report missing unused-bandwidth rows")
	}
}

func TestAppendixBentPipeSmall(t *testing.T) {
	res, rep, err := AppendixBentPipe(BentPipeConfig{Scale: Scale{Duration: 8}})
	if err != nil {
		t.Fatal(err)
	}
	islMean, islN := meanFinite(res.ISLComputedRTT)
	bentMean, bentN := meanFinite(res.BentComputedRTT)
	if islN == 0 || bentN == 0 {
		t.Fatal("one of the modes never connected")
	}
	// Appendix A: bent-pipe connectivity has higher RTT (typically ~5 ms).
	if bentMean <= islMean {
		t.Errorf("bent-pipe RTT %.1fms not above ISL RTT %.1fms", bentMean*1e3, islMean*1e3)
	}
	if res.ISLGoodput <= 0 || res.BentGoodput <= 0 {
		t.Errorf("goodputs: ISL %v, bent %v", res.ISLGoodput, res.BentGoodput)
	}
	// The report's max-RTT row reads the flows' RTT logs, which stay empty
	// (Max -Inf) unless the flows ask to record them.
	if isl, bent := res.ISLFlow.RTTLog.Max(), res.BentFlow.RTTLog.Max(); math.IsInf(isl, 0) || math.IsInf(bent, 0) {
		t.Errorf("TCP max est. RTT: ISL %v, bent-pipe %v; want finite", isl, bent)
	}
	if !strings.HasPrefix(res.ISLPathSVG, "<svg") || !strings.HasPrefix(res.BentPathSVG, "<svg") {
		t.Error("path SVGs malformed")
	}
	if !strings.Contains(rep.String(), "bent-pipe") {
		t.Error("report missing comparison rows")
	}
}

func TestFig6to8AnalysisTiny(t *testing.T) {
	// Very coarse: 4 s horizon at 2 s steps, but all three constellations.
	all, rep, err := Fig6to8Analysis(Scale{Duration: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("constellations = %d", len(all))
	}
	for _, c := range all {
		if len(c.Stats) == 0 {
			t.Errorf("%s: no pairs", c.Name)
		}
		conn := c.connected()
		if len(conn) < len(c.Stats)/2 {
			t.Errorf("%s: only %d/%d pairs connected", c.Name, len(conn), len(c.Stats))
		}
	}
	out := rep.String()
	for _, want := range []string{"Starlink", "Kuiper", "Telesat", "Fig 6", "Fig 7", "Fig 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
