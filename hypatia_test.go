package hypatia

import (
	"strings"
	"testing"
)

// TestFacadeQuickstart exercises the documented quick-start path end to end
// through the public facade only.
func TestFacadeQuickstart(t *testing.T) {
	// Resolve the pair's ground-station indices up front: the run captures
	// ActiveDstGS at construction time (the forwarding-state pipeline
	// precomputes tables for future instants from it).
	cities := Top100Cities()
	var src, dst int
	for i, g := range cities {
		switch g.Name {
		case "Rio de Janeiro":
			src = i
		case "Saint Petersburg":
			dst = i
		}
	}
	run, err := NewRun(RunConfig{
		Constellation:  Kuiper(),
		GroundStations: cities,
		Duration:       Seconds(2),
		ActiveDstGS:    []int{src, dst},
	})
	if err != nil {
		t.Fatal(err)
	}
	ping := NewPinger(run.Net, run.Flows, src, dst, PingConfig{Interval: 10 * Millisecond})
	ping.Start()
	run.Execute()
	replied := 0
	for _, r := range ping.Results() {
		if r.Replied {
			replied++
		}
	}
	if replied == 0 {
		t.Error("no ping replies through the facade quickstart")
	}
}

func TestFacadeConstellationAndViz(t *testing.T) {
	c, err := GenerateConstellation(Telesat())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSatellites() != TelesatT1.Sats() {
		t.Errorf("satellites = %d", c.NumSatellites())
	}
	svg := TrajectoryMapSVG(c, TrajectoryMapOptions{})
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("trajectory SVG malformed")
	}
	czml, err := ConstellationCZML(c, CZMLOptions{Duration: 120, Step: 60})
	if err != nil || len(czml) == 0 {
		t.Errorf("CZML: %v, %d bytes", err, len(czml))
	}
	obs := LLADeg(59.93, 30.36, 0)
	if svg, _ := GroundObserverSVG(c, obs, SkyViewOptions{}); !strings.HasPrefix(svg, "<svg") {
		t.Error("sky view SVG malformed")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	c, err := GenerateConstellation(Kuiper())
	if err != nil {
		t.Fatal(err)
	}
	gss := Top100Cities()[:10]
	topo, err := NewTopology(c, gss, GSLFree)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := AnalyzePairs(topo, AnalysisConfig{Duration: 4, Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 45 {
		t.Errorf("pairs = %d", len(stats))
	}
	var ratios []float64
	for _, s := range stats {
		if s.Connected() {
			ratios = append(ratios, s.MaxOverGeodesic())
		}
	}
	if e := NewECDF(ratios); e.N() == 0 || e.Median() < 1 {
		t.Errorf("ECDF median = %v over %d pairs", e.Median(), e.N())
	}
}

func TestFacadeBentPipeRelays(t *testing.T) {
	paris := LLADeg(48.86, 2.35, 0)
	moscow := LLADeg(55.76, 37.62, 0)
	relays, err := RelayGrid(paris, moscow, 3, 4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 12 {
		t.Errorf("relays = %d", len(relays))
	}
	if _, err := GSByName(Top100Cities(), "Paris"); err != nil {
		t.Error(err)
	}
}

func TestFacadeTransportsAndTools(t *testing.T) {
	run, err := NewRun(RunConfig{
		Constellation:  Kuiper(),
		GroundStations: Top100Cities(),
		Duration:       Seconds(3),
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tcp := NewTCPFlow(run.Net, run.Flows, 0, 1, TCPConfig{RecordLogs: true})
	tcp.Start()
	udp := NewUDPFlow(run.Net, run.Flows, 1, 0, UDPConfig{RateBps: 1e6})
	udp.Start()
	run.Execute()
	if tcp.AckedSegments == 0 {
		t.Error("facade TCP moved nothing")
	}
	if udp.ReceivedPayloadBytes == 0 {
		t.Error("facade UDP moved nothing")
	}
	st := AnalyzeReordering(tcp.ArrivalLog)
	if st.Total == 0 {
		t.Error("no arrivals tracked")
	}
}

func TestFacadeCoverageAndDynamics(t *testing.T) {
	c, err := GenerateConstellation(Telesat())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Coverage(c, Top100Cities()[:3], 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("coverage stats = %d", len(stats))
	}
	dyn := ISLDynamicsAt(c, 0)
	if len(dyn) != len(c.ISLs) {
		t.Fatalf("dynamics = %d", len(dyn))
	}
}

func TestFacadeGEOAndNetworkConfig(t *testing.T) {
	sh := GEORing("G", 4)
	if sh.Sats() != 4 {
		t.Errorf("GEO ring sats = %d", sh.Sats())
	}
	cfg := DefaultNetworkConfig()
	if cfg.GSLRateBps != 10e6 || cfg.QueuePackets != 100 {
		t.Errorf("network defaults: %+v", cfg)
	}
}

func TestFacadeTLEAndTracer(t *testing.T) {
	c, err := GenerateConstellation(ConstellationConfig{
		Name: "Mini",
		Shells: []Shell{{
			Name: "M1", AltitudeKm: 630, Orbits: 4, SatsPerOrbit: 4, IncDeg: 53,
		}},
		MinElevDeg: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	tleText, err := TLEFromElements("SAT-1", 1, 2024, 1.5, c.Satellites[0].Elements)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTLE(tleText.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.SatelliteNum != 1 {
		t.Errorf("sat num = %d", parsed.SatelliteNum)
	}
	cat, err := c.TLECatalog(2024, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseTLECatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 {
		t.Errorf("catalog entries = %d", len(entries))
	}

	// Tracer through the facade.
	run, err := NewRun(RunConfig{
		Constellation:  Kuiper(),
		GroundStations: Top100Cities(),
		Duration:       Seconds(1),
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tr := NewTracer(&buf)
	tr.Attach(run.Net)
	ping := NewPinger(run.Net, run.Flows, 0, 1, PingConfig{Interval: 100 * Millisecond})
	ping.Start()
	run.Execute()
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TX t=") {
		t.Error("trace empty")
	}
}

func TestFacadeFromTLEs(t *testing.T) {
	c, err := GenerateConstellation(Telesat())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := c.TLECatalog(2024, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTLECatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ConstellationFromTLEs(parsed, FromTLEConfig{
		Name: "Telesat-from-TLEs", MinElevDeg: 10,
		ISLMode: ISLPlusGrid, PlaneSize: 13, J2: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumSatellites() != 351 {
		t.Errorf("satellites = %d", rebuilt.NumSatellites())
	}
}
