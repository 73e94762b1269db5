package core

import (
	"testing"

	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

// equatorialCities picks two well-separated near-equatorial stations so a
// small GEO ring can see both.
func equatorialCities(t *testing.T) []groundstation.GS {
	t.Helper()
	all := groundstation.Top100Cities()
	var out []groundstation.GS
	for i, name := range []string{"Nairobi", "Singapore"} {
		g := groundstation.MustByName(all, name)
		g.ID = i
		out = append(out, g)
	}
	return out
}

// geoPingRun executes a 3 s ping exchange over the given shells and returns
// the median observed RTT.
func geoPingRun(t *testing.T, shells []constellation.Shell) sim.Time {
	t.Helper()
	run, err := NewRun(RunConfig{
		Constellation: constellation.Config{
			Name: "GeoLeo", Shells: shells, MinElevDeg: 10,
		},
		GroundStations: equatorialCities(t),
		GSLPolicy:      routing.GSLFree,
		Duration:       3 * sim.Second,
		UpdateInterval: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := transport.NewPinger(run.Net, run.Flows, 0, 1, transport.PingConfig{Interval: 10 * sim.Millisecond})
	p.Start()
	run.Execute()

	var rtts []sim.Time
	for _, r := range p.Results() {
		if r.Replied {
			rtts = append(rtts, r.RTT)
		}
	}
	if len(rtts) < 100 {
		t.Fatalf("only %d of %d pings replied; the path is not usable", len(rtts), len(p.Results()))
	}
	// Median by insertion sort; the slice is small.
	for i := 1; i < len(rtts); i++ {
		for j := i; j > 0 && rtts[j] < rtts[j-1]; j-- {
			rtts[j], rtts[j-1] = rtts[j-1], rtts[j]
		}
	}
	return rtts[len(rtts)/2]
}

// TestGEORingEndToEnd runs the paper's GEO-versus-LEO latency contrast
// (§2.4) end to end through sim.Network: a geostationary ring alone carries
// traffic at hundreds of milliseconds; a LEO shell alone is an order of
// magnitude faster; and a hybrid constellation with both shells delivers at
// LEO latency because shortest-path routing prefers the low orbits.
func TestGEORingEndToEnd(t *testing.T) {
	leo := constellation.Shell{Name: "L1", AltitudeKm: 630, Orbits: 16, SatsPerOrbit: 16, IncDeg: 53}
	geo := constellation.GEORing("G1", 8)

	geoRTT := geoPingRun(t, []constellation.Shell{geo})
	leoRTT := geoPingRun(t, []constellation.Shell{leo})
	hybridRTT := geoPingRun(t, []constellation.Shell{geo, leo})

	// A GEO bounce is ≥ 2×35786 km of propagation: no less than ~240 ms,
	// and with ground-segment detours typically well above 400 ms isn't
	// guaranteed — but 200 ms is a hard physical floor.
	if geoRTT < 200*sim.Millisecond {
		t.Errorf("GEO median RTT %v is below the physical floor for a geostationary bounce", geoRTT)
	}
	// Nairobi–Singapore is ~7400 km great-circle: ~50 ms of RTT at the
	// speed of light, plus the up/down legs and ISL zigzag at 630 km.
	if leoRTT >= 100*sim.Millisecond {
		t.Errorf("LEO median RTT %v; want < 100ms at 630 km over this pair", leoRTT)
	}
	if geoRTT < 5*leoRTT {
		t.Errorf("GEO/LEO RTT gap %v vs %v; want at least 5x", geoRTT, leoRTT)
	}
	if hybridRTT >= 120*sim.Millisecond {
		t.Errorf("hybrid median RTT %v; want LEO-like (< 120ms) since routing should prefer the low shell", hybridRTT)
	}
}
