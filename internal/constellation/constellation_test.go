package constellation

import (
	"math"
	"testing"

	"hypatia/internal/geom"
	"hypatia/internal/tle"
)

func TestTable1ShellCounts(t *testing.T) {
	// Table 1 of the paper, cross-checked by shell.
	cases := []struct {
		shell Shell
		sats  int
		alt   float64
		inc   float64
	}{
		{StarlinkS1, 1584, 550, 53},
		{StarlinkS2, 1600, 1110, 53.8},
		{StarlinkS3, 400, 1130, 74},
		{StarlinkS4, 375, 1275, 81},
		{StarlinkS5, 450, 1325, 70},
		{KuiperK1, 1156, 630, 51.9},
		{KuiperK2, 1296, 610, 42},
		{KuiperK3, 784, 590, 33},
		{TelesatT1, 351, 1015, 98.98},
		{TelesatT2, 1320, 1325, 50.88},
	}
	for _, c := range cases {
		if got := c.shell.Sats(); got != c.sats {
			t.Errorf("%s: sats = %d, want %d", c.shell.Name, got, c.sats)
		}
		if c.shell.AltitudeKm != c.alt {
			t.Errorf("%s: altitude = %v", c.shell.Name, c.shell.AltitudeKm)
		}
		if c.shell.IncDeg != c.inc {
			t.Errorf("%s: inclination = %v", c.shell.Name, c.shell.IncDeg)
		}
		if err := c.shell.Validate(); err != nil {
			t.Errorf("%s: %v", c.shell.Name, err)
		}
	}
	// Paper: Starlink phase one totals 4,409 satellites across 5 shells.
	total := 0
	for _, s := range []Shell{StarlinkS1, StarlinkS2, StarlinkS3, StarlinkS4, StarlinkS5} {
		total += s.Sats()
	}
	if total != 4409 {
		t.Errorf("Starlink phase 1 total = %d, want 4409", total)
	}
	// Kuiper totals 3,236 satellites across its three shells.
	total = 0
	for _, s := range []Shell{KuiperK1, KuiperK2, KuiperK3} {
		total += s.Sats()
	}
	if total != 3236 {
		t.Errorf("Kuiper total = %d, want 3236", total)
	}
	// Telesat totals 1,671 satellites.
	if got := TelesatT1.Sats() + TelesatT2.Sats(); got != 1671 {
		t.Errorf("Telesat total = %d, want 1671", got)
	}
}

func TestShellValidate(t *testing.T) {
	bad := Shell{Name: "X", AltitudeKm: 550, Orbits: 0, SatsPerOrbit: 22, IncDeg: 53}
	if bad.Validate() == nil {
		t.Error("zero orbits accepted")
	}
	bad = Shell{Name: "X", AltitudeKm: 40000, Orbits: 10, SatsPerOrbit: 10, IncDeg: 53}
	if bad.Validate() == nil {
		t.Error("beyond-GEO altitude accepted")
	}
	bad = Shell{Name: "X", AltitudeKm: 550, Orbits: 10, SatsPerOrbit: 10, IncDeg: 0}
	if bad.Validate() == nil {
		t.Error("multiple coincident equatorial planes accepted")
	}
	bad = Shell{Name: "X", AltitudeKm: 550, Orbits: 10, SatsPerOrbit: 10, IncDeg: -5}
	if bad.Validate() == nil {
		t.Error("negative inclination accepted")
	}
}

func TestGEORingIsStationary(t *testing.T) {
	cfg := Config{Name: "GEO", Shells: []Shell{GEORing("G1", 3)}, MinElevDeg: 10}
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSatellites() != 3 {
		t.Fatalf("satellites = %d", c.NumSatellites())
	}
	// Geostationary: the ECEF position drifts by well under a kilometer
	// per hour (only the tiny mismatch between the shell's nominal radius
	// and the exact geosynchronous radius remains).
	for i := 0; i < 3; i++ {
		p0 := c.PositionECEF(i, 0)
		p1 := c.PositionECEF(i, 3600)
		if d := p0.Distance(p1); d > 2000 {
			t.Errorf("GEO sat %d drifted %v m in an hour", i, d)
		}
	}
	// The ring carries intra-orbit ISLs only: degree 2 per satellite.
	for i, d := range c.ISLDegree() {
		if d != 2 {
			t.Errorf("GEO sat %d ISL degree = %d, want 2", i, d)
		}
	}
}

func TestGEOVisibilityAndLatency(t *testing.T) {
	// A GEO satellite over the observer's longitude is visible, and the
	// slant range implies the paper's "hundreds of milliseconds" RTT
	// (>= 2*35786 km / c ~ 239 ms for the up-down round trip alone).
	cfg := Config{Name: "GEO", Shells: []Shell{GEORing("G1", 8)}, MinElevDeg: 10}
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := geom.LLADeg(0, 0, 0)
	vis := c.VisibleFrom(obs, 0, nil)
	if len(vis) == 0 {
		t.Fatal("no GEO satellite visible from the equator")
	}
	pos := c.PositionsECEF(0, nil)
	minSlant := math.Inf(1)
	for _, i := range vis {
		if d := pos[i].Distance(obs.ToECEF()); d < minSlant {
			minSlant = d
		}
	}
	bounceRTT := 4 * minSlant / geom.SpeedOfLight // up-down, both directions
	if bounceRTT < 0.40 || bounceRTT > 0.65 {
		t.Errorf("GEO bounce RTT = %v s, want ~0.48", bounceRTT)
	}
}

func TestGenerateKuiperK1(t *testing.T) {
	c, err := Generate(Kuiper())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSatellites() != 1156 {
		t.Fatalf("satellites = %d", c.NumSatellites())
	}
	if c.MinElev != geom.Rad(30) {
		t.Errorf("min elevation = %v", geom.Deg(c.MinElev))
	}
	// Every satellite sits at the right altitude at every sampled time.
	for _, ts := range []float64{0, 100, 200} {
		for i := 0; i < c.NumSatellites(); i += 97 {
			r := c.PositionECI(i, ts).Norm()
			want := geom.EarthRadius + 630e3
			if math.Abs(r-want) > 10 {
				t.Fatalf("sat %d at t=%v: radius %v, want %v", i, ts, r, want)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Name: "empty"}); err == nil {
		t.Error("no shells accepted")
	}
	if _, err := Generate(Config{Name: "x", Shells: []Shell{KuiperK1}, MinElevDeg: 95}); err == nil {
		t.Error("min elevation 95 accepted")
	}
	if _, err := Generate(Config{Name: "x", Shells: []Shell{{Name: "bad"}}}); err == nil {
		t.Error("invalid shell accepted")
	}
}

func TestPlusGridDegreeIsFour(t *testing.T) {
	// The paper: 4 ISLs per satellite — two intra-orbit, two inter-orbit.
	c, err := Generate(Kuiper())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range c.ISLDegree() {
		if d != 4 {
			t.Fatalf("satellite %d has ISL degree %d, want 4", i, d)
		}
	}
	// Total ISLs: 2 per satellite (each of the 4 per-sat links is shared).
	if want := 2 * c.NumSatellites(); len(c.ISLs) != want {
		t.Errorf("ISL count = %d, want %d", len(c.ISLs), want)
	}
}

func TestPlusGridNoDuplicatesOrSelfLinks(t *testing.T) {
	c, err := Generate(Starlink())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]bool)
	for _, l := range c.ISLs {
		if l.A == l.B {
			t.Fatalf("self link at %d", l.A)
		}
		k := [2]int{l.A, l.B}
		if l.B < l.A {
			k = [2]int{l.B, l.A}
		}
		if seen[k] {
			t.Fatalf("duplicate ISL %v", k)
		}
		seen[k] = true
	}
}

func TestPlusGridNeighborsAreAdjacent(t *testing.T) {
	c, _ := Generate(Kuiper())
	sh := KuiperK1
	for _, l := range c.ISLs {
		a, b := c.Satellites[l.A], c.Satellites[l.B]
		if a.Orbit == b.Orbit {
			// Intra-orbit: adjacent slots (mod SatsPerOrbit).
			d := (b.InOrbit - a.InOrbit + sh.SatsPerOrbit) % sh.SatsPerOrbit
			if d != 1 && d != sh.SatsPerOrbit-1 {
				t.Fatalf("intra-orbit link between non-adjacent slots %d and %d", a.InOrbit, b.InOrbit)
			}
		} else {
			// Inter-orbit: adjacent planes (mod Orbits), same slot.
			d := (b.Orbit - a.Orbit + sh.Orbits) % sh.Orbits
			if d != 1 && d != sh.Orbits-1 {
				t.Fatalf("inter-orbit link between non-adjacent planes %d and %d", a.Orbit, b.Orbit)
			}
			if a.InOrbit != b.InOrbit {
				t.Fatalf("inter-orbit link between different slots %d and %d", a.InOrbit, b.InOrbit)
			}
		}
	}
}

func TestISLNoneMode(t *testing.T) {
	cfg := Kuiper()
	cfg.ISLMode = ISLNone
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ISLs) != 0 {
		t.Errorf("bent-pipe constellation has %d ISLs", len(c.ISLs))
	}
}

func TestMultiShellISLsStayWithinShell(t *testing.T) {
	cfg := Config{
		Name:       "Telesat",
		Shells:     []Shell{TelesatT1, TelesatT2},
		MinElevDeg: TelesatMinElevDeg,
	}
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSatellites() != 1671 {
		t.Fatalf("satellites = %d", c.NumSatellites())
	}
	for _, l := range c.ISLs {
		if c.Satellites[l.A].ShellIndex != c.Satellites[l.B].ShellIndex {
			t.Fatalf("ISL crosses shells: %d-%d", l.A, l.B)
		}
	}
}

func TestSatelliteMetadata(t *testing.T) {
	c, _ := Generate(Kuiper())
	sh := KuiperK1
	for i, s := range c.Satellites {
		if s.Index != i {
			t.Fatalf("satellite %d has Index %d", i, s.Index)
		}
		if s.Orbit != i/sh.SatsPerOrbit || s.InOrbit != i%sh.SatsPerOrbit {
			t.Fatalf("satellite %d has orbit %d slot %d", i, s.Orbit, s.InOrbit)
		}
	}
}

func TestAlternatingPhasing(t *testing.T) {
	// Default (Hypatia-faithful) phasing: odd planes lead by half an
	// in-plane slot, even planes are unshifted.
	c, _ := Generate(Kuiper())
	sh := KuiperK1
	slot := 2 * math.Pi / float64(sh.SatsPerOrbit)
	s00 := c.Satellites[0].Elements.MeanAnomaly
	for _, o := range []int{1, 2, 3, sh.Orbits - 1} {
		got := math.Mod(c.Satellites[o*sh.SatsPerOrbit].Elements.MeanAnomaly-s00+2*math.Pi, 2*math.Pi)
		want := float64(o%2) * 0.5 * slot
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("plane %d offset = %v, want %v", o, got, want)
		}
	}
}

func TestWalkerPhasing(t *testing.T) {
	// With Walker phasing F=1, plane 1's slot-0 satellite leads plane 0's
	// slot-0 satellite by 1/Orbits of an in-plane spacing in mean anomaly,
	// and the cumulative shift around all planes is exactly one whole slot.
	sh := KuiperK1
	sh.Phasing = PhaseWalker
	sh.WalkerF = 1
	cfg := Kuiper(sh)
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s00 := c.Satellites[0].Elements.MeanAnomaly
	s10 := c.Satellites[sh.SatsPerOrbit].Elements.MeanAnomaly
	slot := 2 * math.Pi / float64(sh.SatsPerOrbit)
	wantDelta := slot / float64(sh.Orbits)
	got := math.Mod(s10-s00+2*math.Pi, 2*math.Pi)
	if math.Abs(got-wantDelta) > 1e-9 {
		t.Errorf("phase offset = %v, want %v", got, wantDelta)
	}
	// Last plane's offset: (Orbits-1)*F/Orbits slots; one more plane step
	// would complete a whole slot.
	last := c.Satellites[(sh.Orbits-1)*sh.SatsPerOrbit].Elements.MeanAnomaly
	wantLast := slot * float64(sh.Orbits-1) / float64(sh.Orbits)
	gotLast := math.Mod(last-s00+2*math.Pi, 2*math.Pi)
	if math.Abs(gotLast-wantLast) > 1e-9 {
		t.Errorf("last plane offset = %v, want %v", gotLast, wantLast)
	}
}

func TestISLsArePhysicallyRealizable(t *testing.T) {
	// No +Grid ISL may be longer than the line-of-sight maximum at the
	// shell's altitude (a longer link would pass through the Earth). This
	// is the property that forces seam-continuous Walker phasing.
	for _, cfg := range []Config{Starlink(), Kuiper(), Telesat()} {
		c, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range []float64{0, 100} {
			pos := c.PositionsECEF(ts, nil)
			for _, l := range c.ISLs {
				alt := c.Shells[c.Satellites[l.A].ShellIndex].AltitudeKm * 1000
				d := pos[l.A].Distance(pos[l.B])
				if d > MaxISLRange(alt) {
					t.Fatalf("%s: ISL %d-%d is %v km at t=%v, max %v km",
						cfg.Name, l.A, l.B, d/1000, ts, MaxISLRange(alt)/1000)
				}
			}
		}
	}
}

func TestValidateRejectsBadWalkerF(t *testing.T) {
	sh := KuiperK1
	sh.Phasing = PhaseWalker
	sh.WalkerF = sh.Orbits
	if sh.Validate() == nil {
		t.Error("WalkerF = Orbits accepted")
	}
	sh.WalkerF = -1
	if sh.Validate() == nil {
		t.Error("negative WalkerF accepted")
	}
	// WalkerF is ignored (and unvalidated) under alternating phasing.
	sh.Phasing = PhaseAlternating
	if err := sh.Validate(); err != nil {
		t.Errorf("alternating phasing should ignore WalkerF: %v", err)
	}
}

// TestPositionsECEFMatchesPerSatellite holds the batch path, which takes
// the sidereal angle's trig once per instant, bitwise equal to the
// per-satellite one for every satellite at several instants.
func TestPositionsECEFMatchesPerSatellite(t *testing.T) {
	c, _ := Generate(Telesat())
	var all []geom.Vec3
	for _, ts := range []float64{-50, 0, 0.1, 123.4, 5400, 86400} {
		all = c.PositionsECEF(ts, all)
		if len(all) != c.NumSatellites() {
			t.Fatalf("len = %d", len(all))
		}
		for i, got := range all {
			if want := c.PositionECEF(i, ts); got != want {
				t.Fatalf("t=%v sat %d: batch position %v, single %v", ts, i, got, want)
			}
		}
	}
	// Reuses the destination slice when it has capacity.
	again := c.PositionsECEF(200, all)
	if &again[0] != &all[0] {
		t.Error("PositionsECEF did not reuse destination slice")
	}
}

func TestEarthRotationMovesECEFNotECI(t *testing.T) {
	c, _ := Generate(Kuiper())
	// Over a short dt, the ECEF displacement includes Earth rotation; the
	// two frames must diverge in longitude over time for a fixed satellite.
	eci0 := c.PositionECI(0, 0)
	ecef0 := c.PositionECEF(0, 0)
	if eci0.Distance(ecef0) > 1e-6 {
		t.Errorf("at t=0 with zero epoch GMST, frames should coincide: %v", eci0.Distance(ecef0))
	}
	// A quarter sidereal day later they must not coincide.
	ts := 0.25 * 2 * math.Pi / geom.EarthRotationRate
	if c.PositionECI(0, ts).Distance(c.PositionECEF(0, ts)) < 1e5 {
		t.Error("ECI and ECEF positions should diverge after hours")
	}
}

func TestVisibleFromMatchesDirectCheck(t *testing.T) {
	c, _ := Generate(Kuiper())
	obs := geom.LLADeg(41.0082, 28.9784, 0) // Istanbul
	obsECEF := obs.ToECEF()
	pos := c.PositionsECEF(50, nil)
	vis := c.VisibleFrom(obs, 50, pos)
	got := make(map[int]bool, len(vis))
	for _, i := range vis {
		got[i] = true
	}
	for i, p := range pos {
		h := p.Norm() - geom.EarthRadius
		want := p.Distance(obsECEF) <= MaxGSLRange(h, c.MinElev) &&
			geom.Elevation(obs, p) >= 0
		if got[i] != want {
			t.Fatalf("sat %d: VisibleFrom=%v, direct=%v", i, got[i], want)
		}
	}
	if len(vis) == 0 {
		t.Error("Istanbul should see at least one Kuiper satellite at t=50")
	}
}

func TestMaxGSLRange(t *testing.T) {
	// Kuiper: 630 km at 30 degrees => 1,260 km.
	if got := MaxGSLRange(630e3, geom.Rad(30)); math.Abs(got-1260e3) > 1 {
		t.Errorf("Kuiper max GSL = %v km", got/1000)
	}
	// Lower elevation reaches farther.
	if MaxGSLRange(630e3, geom.Rad(10)) <= MaxGSLRange(630e3, geom.Rad(30)) {
		t.Error("range should grow as min elevation falls")
	}
	// Degenerate elevation falls back to the horizon slant.
	if got := MaxGSLRange(630e3, 0); math.Abs(got-geom.MaxSlantRange(630e3, 0)) > 1 {
		t.Errorf("zero-elevation fallback = %v", got)
	}
}

// TestGSLConeMatchesMaxGSLRange: a cone built once per elevation ranges
// every altitude bit for bit as MaxGSLRange does, and as its written-out
// formula does, over a sweep of altitudes and elevations that includes
// zero and negative elevations (the horizon fallback).
func TestGSLConeMatchesMaxGSLRange(t *testing.T) {
	formula := func(h, minEl float64) float64 {
		if minEl <= 0 {
			return geom.MaxSlantRange(h, 0)
		}
		return h / math.Sin(minEl)
	}
	elevations := []float64{math.Inf(-1), -math.Pi / 2, -0.3, -1e-12, math.Copysign(0, -1), 0, 1e-12}
	for deg := 0.25; deg < 90; deg += 0.25 {
		elevations = append(elevations, geom.Rad(deg))
	}
	checked := 0
	for _, minEl := range elevations {
		cone := NewGSLCone(minEl)
		for h := 150e3; h <= 40000e3; h *= 1.0173 {
			for _, alt := range []float64{h, math.Nextafter(h, 0), h + 0.5} {
				got := cone.Range(alt)
				if want := MaxGSLRange(alt, minEl); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("minEl %v h %v: cone %v, MaxGSLRange %v", minEl, alt, got, want)
				}
				if want := formula(alt, minEl); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("minEl %v h %v: cone %v, formula %v", minEl, alt, got, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d (altitude, elevation) points", checked)
}

func TestVisibleFromCubeMatchesPaperCoverage(t *testing.T) {
	// The flat-earth cone criterion must make Saint Petersburg (59.93N)
	// reachable from Kuiper K1 most of the time — the paper's Fig 3(a)
	// shows sustained Rio-Saint Petersburg connectivity with a short
	// outage — even though the exact 30-degree elevation check would keep
	// it permanently out of reach of a 51.9-degree-inclination shell.
	c, _ := Generate(Kuiper())
	stP := geom.LLADeg(59.9311, 30.3609, 0)
	connected, total := 0, 0
	for ts := 0.0; ts < 1200; ts += 10 {
		total++
		if len(c.VisibleFrom(stP, ts, nil)) > 0 {
			connected++
		}
	}
	frac := float64(connected) / float64(total)
	if frac < 0.5 {
		t.Errorf("St. Petersburg connected only %.0f%% of the time", frac*100)
	}
	if frac == 1 {
		t.Log("note: no outage in 20 min window (outages are expected but rare)")
	}
}

func TestVisibleFromComputesPositionsWhenNil(t *testing.T) {
	c, _ := Generate(Kuiper())
	obs := geom.LLADeg(0, 0, 0)
	a := c.VisibleFrom(obs, 10, nil)
	b := c.VisibleFrom(obs, 10, c.PositionsECEF(10, nil))
	if len(a) != len(b) {
		t.Fatalf("nil-position path differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestHighLatitudeCoverageDiffersByConstellation(t *testing.T) {
	// St. Petersburg (59.93°N) is beyond Kuiper K1's reliable coverage
	// (51.9° inclination, 30° min elevation) but within Telesat T1's
	// (98.98° polar orbits, 10° min elevation). Sample a full orbital
	// period; Kuiper must lose coverage at some point, Telesat must not.
	stPetersburg := geom.LLADeg(59.9311, 30.3609, 0)

	kuiper, _ := Generate(Kuiper())
	kuiperVisible := 0
	samples := 0
	for ts := 0.0; ts < 6000; ts += 30 {
		kuiperVisible += len(kuiper.VisibleFrom(stPetersburg, ts, nil))
		samples++
	}

	telesat, _ := Generate(Telesat())
	telesatGaps := 0
	telesatVisible := 0
	for ts := 0.0; ts < 6000; ts += 30 {
		n := len(telesat.VisibleFrom(stPetersburg, ts, nil))
		telesatVisible += n
		if n == 0 {
			telesatGaps++
		}
	}
	if telesatGaps > 0 {
		t.Errorf("Telesat T1 has %d coverage gaps at St. Petersburg, want 0", telesatGaps)
	}
	// Kuiper's coverage at 59.9 N is marginal (the shell tops out at 51.9
	// degrees): on average far fewer connectable satellites than Telesat's
	// polar shell despite Kuiper having 3x the satellites.
	kuiperMean := float64(kuiperVisible) / float64(samples)
	telesatMean := float64(telesatVisible) / float64(samples)
	if kuiperMean >= telesatMean {
		t.Errorf("Kuiper sees %.1f satellites on average at St. Petersburg, Telesat %.1f — want Kuiper far fewer",
			kuiperMean, telesatMean)
	}
	if kuiperMean > 4 {
		t.Errorf("Kuiper coverage at St. Petersburg should be marginal, got %.1f satellites on average", kuiperMean)
	}
}

func TestTLECatalogRoundTrips(t *testing.T) {
	cfg := Config{Name: "Mini", Shells: []Shell{{
		Name: "M1", AltitudeKm: 630, Orbits: 4, SatsPerOrbit: 5, IncDeg: 51.9,
	}}, MinElevDeg: 30}
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := c.TLECatalog(2024, 100.5)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := tle.ParseCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 20 {
		t.Fatalf("parsed %d TLEs, want 20", len(parsed))
	}
	for i, p := range parsed {
		want := c.Satellites[i].Elements
		got := p.Elements()
		if math.Abs(got.SemiMajorAxis-want.SemiMajorAxis) > 50 {
			t.Fatalf("sat %d semi-major axis: %v vs %v", i, got.SemiMajorAxis, want.SemiMajorAxis)
		}
		if math.Abs(got.Inclination-want.Inclination) > geom.Rad(0.001) {
			t.Fatalf("sat %d inclination: %v vs %v", i, got.Inclination, want.Inclination)
		}
	}
}

func TestGMSTAtUsesEpoch(t *testing.T) {
	cfg := Kuiper()
	cfg.EpochGMST = 1.5
	c, _ := Generate(cfg)
	if got := c.GMSTAt(0); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("GMSTAt(0) = %v", got)
	}
}

func TestFromTLEsRoundTrip(t *testing.T) {
	// Generate a mini constellation, export its TLE catalog, rebuild a
	// constellation from the catalog, and compare positions over time.
	src, err := Generate(Config{
		Name: "Mini",
		Shells: []Shell{{
			Name: "M1", AltitudeKm: 630, Orbits: 4, SatsPerOrbit: 6, IncDeg: 51.9,
		}},
		MinElevDeg: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := src.TLECatalog(2024, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := tle.ParseCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromTLEs(parsed, FromTLEConfig{
		Name: "Rebuilt", MinElevDeg: 30, ISLMode: ISLPlusGrid, PlaneSize: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumSatellites() != 24 {
		t.Fatalf("satellites = %d", rebuilt.NumSatellites())
	}
	if len(rebuilt.ISLs) != len(src.ISLs) {
		t.Fatalf("ISLs = %d, want %d", len(rebuilt.ISLs), len(src.ISLs))
	}
	for _, ts := range []float64{0, 100, 1000} {
		for i := 0; i < 24; i += 5 {
			d := src.PositionECEF(i, ts).Distance(rebuilt.PositionECEF(i, ts))
			// TLE quantization (1e-4 deg) costs tens of meters; allow slack
			// for mean-motion rounding growing along-track over time.
			if d > 2000 {
				t.Fatalf("sat %d diverged %v m at t=%v", i, d, ts)
			}
		}
	}
	// Visibility behaves like the source constellation.
	obs := geom.LLADeg(40, 20, 0)
	a := len(src.VisibleFrom(obs, 50, nil))
	b := len(rebuilt.VisibleFrom(obs, 50, nil))
	if a != b {
		t.Errorf("visible: src %d vs rebuilt %d", a, b)
	}
}

func TestFromTLEsValidation(t *testing.T) {
	if _, err := FromTLEs(nil, FromTLEConfig{MinElevDeg: 30}); err == nil {
		t.Error("empty catalog accepted")
	}
	src, _ := Generate(Kuiper())
	cat, _ := src.TLECatalog(2024, 1.0)
	all, err := tle.ParseCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	parsed := all[:10] // just a few entries
	if _, err := FromTLEs(parsed, FromTLEConfig{MinElevDeg: 95}); err == nil {
		t.Error("bad elevation accepted")
	}
	if _, err := FromTLEs(parsed, FromTLEConfig{MinElevDeg: 30, ISLMode: ISLPlusGrid, PlaneSize: 7}); err == nil {
		t.Error("non-dividing plane size accepted")
	}
	// Bent-pipe mode accepts any catalog shape.
	c, err := FromTLEs(parsed, FromTLEConfig{MinElevDeg: 30, ISLMode: ISLNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ISLs) != 0 {
		t.Error("bent-pipe catalog has ISLs")
	}
}
