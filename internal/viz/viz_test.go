package viz

import (
	"encoding/json"
	"strings"
	"testing"

	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
)

func miniConstellation(t *testing.T) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Generate(constellation.Config{
		Name: "Mini",
		Shells: []constellation.Shell{{
			Name: "M1", AltitudeKm: 630, Orbits: 8, SatsPerOrbit: 8,
			IncDeg: 53,
		}},
		MinElevDeg: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func miniTopo(t *testing.T) *routing.Topology {
	t.Helper()
	all := groundstation.Top100Cities()
	var gss []groundstation.GS
	for i, name := range []string{"Istanbul", "Nairobi"} {
		g := groundstation.MustByName(all, name)
		g.ID = i
		gss = append(gss, g)
	}
	topo, err := routing.NewTopology(miniConstellation(t), gss, routing.GSLFree)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestConstellationCZMLIsValidJSON(t *testing.T) {
	c := miniConstellation(t)
	raw, err := ConstellationCZML(c, CZMLOptions{Duration: 300, Step: 60})
	if err != nil {
		t.Fatal(err)
	}
	var doc []map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("CZML does not parse: %v", err)
	}
	if len(doc) != 1+c.NumSatellites() {
		t.Fatalf("packets = %d, want %d", len(doc), 1+c.NumSatellites())
	}
	if doc[0]["id"] != "document" || doc[0]["version"] != "1.0" {
		t.Errorf("document packet: %v", doc[0])
	}
	// Each satellite packet carries epoch-tagged cartesians: 4 values per
	// sample, 6 samples for 300/60.
	pos := doc[1]["position"].(map[string]any)
	cart := pos["cartesian"].([]any)
	if len(cart) != 6*4 {
		t.Errorf("cartesian samples = %d, want 24", len(cart))
	}
	if pos["epoch"] != "2020-01-01T00:00:00Z" {
		t.Errorf("epoch = %v", pos["epoch"])
	}
}

func TestConstellationCZMLPositionsAreOrbital(t *testing.T) {
	c := miniConstellation(t)
	raw, err := ConstellationCZML(c, CZMLOptions{Duration: 60, Step: 60})
	if err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Position *struct {
			Cartesian []float64 `json:"cartesian"`
		} `json:"position"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want := geom.EarthRadius + 630e3
	for _, p := range doc[1:] {
		for i := 0; i+3 < len(p.Position.Cartesian); i += 4 {
			v := geom.Vec3{
				X: p.Position.Cartesian[i+1],
				Y: p.Position.Cartesian[i+2],
				Z: p.Position.Cartesian[i+3],
			}
			if r := v.Norm(); r < want-1e4 || r > want+1e4 {
				t.Fatalf("satellite radius %v, want ~%v", r, want)
			}
		}
	}
}

// TestStepCount pins the sample count on horizons whose float quotient
// lands just below a whole number (0.7/0.1 is 6.999...).
func TestStepCount(t *testing.T) {
	for _, tc := range []struct {
		duration, step float64
		want           int
	}{
		{0.3, 0.1, 4}, {0.7, 0.1, 8}, {1, 0.3, 4}, {30, 0.1, 301}, {200, 0.05, 4001},
	} {
		if got := stepCount(tc.duration, tc.step); got != tc.want {
			t.Errorf("stepCount(%v, %v) = %d, want %d", tc.duration, tc.step, got, tc.want)
		}
	}
}

func TestConstellationCZMLRejectsBadOptions(t *testing.T) {
	c := miniConstellation(t)
	if _, err := ConstellationCZML(c, CZMLOptions{Duration: -5, Step: 1}); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestPathCZML(t *testing.T) {
	pts := []geom.Vec3{{X: 7e6}, {Y: 7e6}, {Z: 7e6}}
	raw, err := PathCZML("test", pts)
	if err != nil {
		t.Fatal(err)
	}
	var doc []map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 2 {
		t.Fatalf("packets = %d", len(doc))
	}
	if _, err := PathCZML("x", pts[:1]); err == nil {
		t.Error("single-point path accepted")
	}
}

func checkSVG(t *testing.T, svg string) {
	t.Helper()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
}

func TestTrajectoryMapSVG(t *testing.T) {
	c := miniConstellation(t)
	svg := TrajectoryMapSVG(c, TrajectoryMapOptions{Time: 100, OrbitTrack: true})
	checkSVG(t, svg)
	// One faint circle per satellite plus graticule.
	if got := strings.Count(svg, "<circle"); got != c.NumSatellites() {
		t.Errorf("circles = %d, want %d", got, c.NumSatellites())
	}
	if !strings.Contains(svg, "#cc3333") {
		t.Error("no orbit tracks drawn")
	}
}

func TestGroundObserverSVG(t *testing.T) {
	c := miniConstellation(t)
	obs := geom.LLADeg(41, 29, 0)
	svg, connectable := GroundObserverSVG(c, obs, SkyViewOptions{Time: 0})
	checkSVG(t, svg)
	if connectable < 0 {
		t.Error("negative connectable count")
	}
	// The shaded minimum-elevation band must be present.
	if !strings.Contains(svg, "#e8e8e8") {
		t.Error("minimum-elevation band missing")
	}
	// Count satellites above the horizon independently.
	above := 0
	pos := c.PositionsECEF(0, nil)
	for _, p := range pos {
		if geom.Look(obs, p).Elevation >= 0 {
			above++
		}
	}
	if got := strings.Count(svg, "<circle"); got != above {
		t.Errorf("sky dots = %d, want %d", got, above)
	}
}

func TestPathMapSVG(t *testing.T) {
	topo := miniTopo(t)
	path, _ := topo.Snapshot(0).Path(0, 1)
	if path == nil {
		t.Skip("pair disconnected in mini constellation")
	}
	svg := PathMapSVG(topo, path, 0, 0, 0)
	checkSVG(t, svg)
	if !strings.Contains(svg, "#0066cc") {
		t.Error("path links missing")
	}
	if !strings.Contains(svg, "#1a9850") {
		t.Error("ground station markers missing")
	}
}

func TestUtilizationMapSVG(t *testing.T) {
	topo := miniTopo(t)
	loads := []LinkLoad{
		{From: 0, To: 1, Utilization: 0.9},
		{From: 1, To: 2, Utilization: 0.1},
		{From: 2, To: 3, Utilization: 0}, // omitted
	}
	svg := UtilizationMapSVG(topo, loads, 10, 0, 0)
	checkSVG(t, svg)
	// Two loaded links drawn (zero-load omitted): count rgb strokes.
	if got := strings.Count(svg, "rgb("); got != 2 {
		t.Errorf("utilization strokes = %d, want 2", got)
	}
}

func TestAntimeridianSplit(t *testing.T) {
	c := newMapCanvas(360, 180)
	a := geom.LLADeg(0, 179, 0)
	b := geom.LLADeg(0, -179, 0)
	c.segment(a, b, 1, "#000")
	svg := c.finish()
	// Split into two clipped segments instead of one 358-degree line.
	if got := strings.Count(svg, "<line"); got != 2 {
		t.Errorf("antimeridian segment drawn as %d lines, want 2", got)
	}
}

func TestPathMapSVGCustomSize(t *testing.T) {
	topo := miniTopo(t)
	path, _ := topo.Snapshot(0).Path(0, 1)
	if path == nil {
		t.Skip("disconnected")
	}
	svg := PathMapSVG(topo, path, 0, 400, 200)
	checkSVG(t, svg)
	if !strings.Contains(svg, `width="400"`) || !strings.Contains(svg, `height="200"`) {
		t.Error("custom dimensions not applied")
	}
}

func TestUtilizationMapSVGCustomSizeAndClamping(t *testing.T) {
	topo := miniTopo(t)
	// Utilization above 1 is clamped for rendering.
	svg := UtilizationMapSVG(topo, []LinkLoad{{From: 0, To: 1, Utilization: 2.5}}, 0, 500, 250)
	checkSVG(t, svg)
	if !strings.Contains(svg, `width="500"`) {
		t.Error("custom width not applied")
	}
	// Clamped to u=1: stroke width 0.8+3.2 = 4.00.
	if !strings.Contains(svg, `stroke-width="4.00"`) {
		t.Error("over-unity utilization not clamped")
	}
}

func TestGroundObserverConnectableCount(t *testing.T) {
	c := miniConstellation(t)
	// From the north pole a 53-degree shell has nothing connectable.
	svg, connectable := GroundObserverSVG(c, geom.LLADeg(89.9, 0, 0), SkyViewOptions{Time: 0})
	checkSVG(t, svg)
	if connectable != 0 {
		t.Errorf("pole sees %d connectable satellites", connectable)
	}
}

func TestCZMLOptionsDefaults(t *testing.T) {
	opt := CZMLOptions{}.withDefaults()
	if opt.Epoch == "" || opt.Duration != 5700 || opt.Step != 60 || opt.PixelSize != 3 {
		t.Errorf("defaults: %+v", opt)
	}
}

func TestTrajectoryMapWithoutTracks(t *testing.T) {
	c := miniConstellation(t)
	svg := TrajectoryMapSVG(c, TrajectoryMapOptions{})
	checkSVG(t, svg)
	if strings.Contains(svg, "#cc3333") {
		t.Error("orbit tracks drawn without OrbitTrack")
	}
}
