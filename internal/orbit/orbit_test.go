package orbit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hypatia/internal/geom"
)

func circ550() Elements { return Circular(550e3, geom.Rad(53), 0, 0) }

func TestValidate(t *testing.T) {
	if err := circ550().Validate(); err != nil {
		t.Errorf("valid orbit rejected: %v", err)
	}
	bad := Elements{SemiMajorAxis: 1000}
	if err := bad.Validate(); err == nil {
		t.Error("sub-surface orbit accepted")
	}
	bad = circ550()
	bad.Eccentricity = 1.2
	if err := bad.Validate(); err == nil {
		t.Error("hyperbolic orbit accepted")
	}
	bad = circ550()
	bad.Inclination = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN inclination accepted")
	}
}

func TestPeriodAndSpeedMatchPaperNumbers(t *testing.T) {
	e := circ550()
	// Paper: at h = 550 km satellites complete an orbit in ~100 minutes...
	period := e.Period() / 60 // minutes
	if period < 90 || period > 100 {
		t.Errorf("550 km period = %.1f min, want ~95", period)
	}
	// ...traveling at more than 27,000 km/h.
	speed := e.Speed() * 3.6 // km/h
	if speed < 27000 || speed > 28000 {
		t.Errorf("550 km speed = %.0f km/h, want >27000", speed)
	}
}

func TestAltitude(t *testing.T) {
	if got := circ550().Altitude(); math.Abs(got-550e3) > 1e-6 {
		t.Errorf("Altitude = %v", got)
	}
}

func TestSolveKeplerCircular(t *testing.T) {
	for _, m := range []float64{0, 1, math.Pi, 5, -1} {
		e := SolveKepler(m, 0)
		want := math.Mod(m, 2*math.Pi)
		if want < 0 {
			want += 2 * math.Pi
		}
		if math.Abs(e-want) > 1e-12 {
			t.Errorf("SolveKepler(%v, 0) = %v, want %v", m, e, want)
		}
	}
}

func TestSolveKeplerSatisfiesEquationProperty(t *testing.T) {
	f := func(m, eRaw float64) bool {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return true
		}
		m = math.Mod(m, 2*math.Pi)
		ecc := math.Mod(math.Abs(eRaw), 0.9) // e in [0, 0.9)
		bigE := SolveKepler(m, ecc)
		back := bigE - ecc*math.Sin(bigE)
		diff := math.Mod(back-m, 2*math.Pi)
		if diff > math.Pi {
			diff -= 2 * math.Pi
		}
		if diff < -math.Pi {
			diff += 2 * math.Pi
		}
		return math.Abs(diff) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTrueAnomalyCircular(t *testing.T) {
	for _, e := range []float64{0.5, 1.5, 3.0} {
		if got := TrueAnomaly(e, 0); got != e {
			t.Errorf("TrueAnomaly(%v, 0) = %v", e, got)
		}
	}
}

func TestPropagatorRadiusConstantForCircularOrbit(t *testing.T) {
	k, err := NewKeplerPropagator(circ550(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := geom.EarthRadius + 550e3
	for ts := 0.0; ts <= 6000; ts += 100 {
		r := k.PositionECI(ts).Norm()
		if math.Abs(r-want) > 1 {
			t.Fatalf("radius at t=%v: %v, want %v", ts, r, want)
		}
	}
}

func TestPropagatorPeriodicity(t *testing.T) {
	k, _ := NewKeplerPropagator(circ550(), false)
	p0 := k.PositionECI(0)
	p1 := k.PositionECI(k.Elements().Period())
	if p0.Distance(p1) > 1 {
		t.Errorf("orbit not periodic: displaced %v m after one period", p0.Distance(p1))
	}
}

func TestPropagatorVelocityMatchesFiniteDifference(t *testing.T) {
	k, _ := NewKeplerPropagator(Circular(630e3, geom.Rad(51.9), 1.0, 2.0), false)
	const dt = 1e-3
	st := k.StateECI(100)
	pPlus := k.PositionECI(100 + dt)
	pMinus := k.PositionECI(100 - dt)
	fd := pPlus.Sub(pMinus).Scale(1 / (2 * dt))
	if fd.Sub(st.Velocity).Norm() > 0.5 {
		t.Errorf("velocity mismatch: analytic %v vs finite-diff %v", st.Velocity, fd)
	}
}

func TestPropagatorInclinationBoundsLatitude(t *testing.T) {
	// A satellite in an inclined circular orbit never exceeds |lat| = i.
	incl := geom.Rad(53)
	k, _ := NewKeplerPropagator(Circular(550e3, incl, 0.3, 0), false)
	maxLat := 0.0
	for ts := 0.0; ts < 6000; ts += 10 {
		p := k.PositionECI(ts)
		lat := math.Asin(p.Z / p.Norm())
		if math.Abs(lat) > maxLat {
			maxLat = math.Abs(lat)
		}
	}
	if maxLat > incl+1e-6 {
		t.Errorf("max latitude %v exceeds inclination %v", geom.Deg(maxLat), geom.Deg(incl))
	}
	// And it should nearly reach the inclination over a full orbit.
	if maxLat < incl-geom.Rad(1) {
		t.Errorf("max latitude %v far below inclination %v", geom.Deg(maxLat), geom.Deg(incl))
	}
}

func TestPropagatorAngularMomentumConservedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		e := Elements{
			SemiMajorAxis: geom.EarthRadius + 400e3 + r.Float64()*1.6e6,
			Eccentricity:  r.Float64() * 0.3,
			Inclination:   r.Float64() * math.Pi,
			RAAN:          r.Float64() * 2 * math.Pi,
			ArgPerigee:    r.Float64() * 2 * math.Pi,
			MeanAnomaly:   r.Float64() * 2 * math.Pi,
		}
		k, err := NewKeplerPropagator(e, false)
		if err != nil {
			t.Fatal(err)
		}
		s0 := k.StateECI(0)
		h0 := s0.Position.Cross(s0.Velocity)
		for _, ts := range []float64{500, 2000, 5000} {
			s := k.StateECI(ts)
			h := s.Position.Cross(s.Velocity)
			if h.Sub(h0).Norm() > 1e-6*h0.Norm() {
				t.Fatalf("angular momentum drift for %+v at t=%v: %v vs %v", e, ts, h, h0)
			}
		}
	}
}

func TestPropagatorEnergyConservedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		e := Elements{
			SemiMajorAxis: geom.EarthRadius + 500e3 + r.Float64()*1e6,
			Eccentricity:  r.Float64() * 0.2,
			Inclination:   r.Float64() * math.Pi / 2,
			RAAN:          r.Float64() * 2 * math.Pi,
			ArgPerigee:    r.Float64() * 2 * math.Pi,
			MeanAnomaly:   r.Float64() * 2 * math.Pi,
		}
		k, _ := NewKeplerPropagator(e, false)
		energy := func(s State) float64 {
			return s.Velocity.Dot(s.Velocity)/2 - geom.EarthMu/s.Position.Norm()
		}
		want := -geom.EarthMu / (2 * e.SemiMajorAxis)
		for _, ts := range []float64{0, 1234, 4321} {
			got := energy(k.StateECI(ts))
			if math.Abs(got-want) > 1e-6*math.Abs(want) {
				t.Fatalf("energy at t=%v: %v, want %v", ts, got, want)
			}
		}
	}
}

func TestJ2RAANRegressionDirection(t *testing.T) {
	// For prograde orbits (i < 90°) J2 makes the node regress (drift west);
	// for retrograde orbits (i > 90°, e.g. Telesat's 98.98°) it precesses
	// east — that is what makes sun-synchronous orbits possible.
	pro, _ := NewKeplerPropagator(Circular(550e3, geom.Rad(53), 1, 0), true)
	if pro.raanDot >= 0 {
		t.Errorf("prograde RAAN rate = %v, want negative", pro.raanDot)
	}
	retro, _ := NewKeplerPropagator(Circular(1015e3, geom.Rad(98.98), 1, 0), true)
	if retro.raanDot <= 0 {
		t.Errorf("retrograde RAAN rate = %v, want positive", retro.raanDot)
	}
}

func TestJ2MagnitudeSane(t *testing.T) {
	// At 550 km / 53°, nodal regression is about -5 degrees/day.
	k, _ := NewKeplerPropagator(Circular(550e3, geom.Rad(53), 0, 0), true)
	degPerDay := geom.Deg(k.raanDot * geom.SecondsPerDay)
	if degPerDay > -4 || degPerDay < -6 {
		t.Errorf("RAAN drift = %v deg/day, want roughly -5", degPerDay)
	}
}

func TestJ2SmallOverSimulationWindow(t *testing.T) {
	// Over the paper's 200 s experiment window the J2 and two-body positions
	// must agree to within a few kilometers, i.e. J2 does not change the
	// networking picture at that horizon.
	e := Circular(630e3, geom.Rad(51.9), 2, 1)
	twoBody, _ := NewKeplerPropagator(e, false)
	j2, _ := NewKeplerPropagator(e, true)
	maxDiff := 0.0
	for ts := 0.0; ts <= 200; ts += 10 {
		d := twoBody.PositionECI(ts).Distance(j2.PositionECI(ts))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 5000 {
		t.Errorf("J2 vs two-body diverged %v m over 200 s", maxDiff)
	}
}

func TestNewKeplerPropagatorRejectsInvalid(t *testing.T) {
	if _, err := NewKeplerPropagator(Elements{SemiMajorAxis: 10}, false); err == nil {
		t.Error("invalid elements accepted")
	}
}

func TestElementsAtWrapsAngles(t *testing.T) {
	k, _ := NewKeplerPropagator(circ550(), true)
	e := k.ElementsAt(1e6)
	for name, v := range map[string]float64{
		"MeanAnomaly": e.MeanAnomaly, "RAAN": e.RAAN, "ArgPerigee": e.ArgPerigee,
	} {
		if v <= -2*math.Pi || v >= 2*math.Pi || math.IsNaN(v) {
			t.Errorf("%s not wrapped: %v", name, v)
		}
	}
}

// TestPositionECIMatchesStateECI locks PositionECI to StateECI's position
// bit for bit: with J2 off and on, circular and eccentric, equatorial,
// inclined and retrograde, before the epoch, at it and across several
// periods. Every forwarding table and digest is computed from PositionECI,
// so a last-bit difference here would move them.
func TestPositionECIMatchesStateECI(t *testing.T) {
	for _, j2 := range []bool{false, true} {
		for _, ecc := range []float64{0, 0.01, 0.1} {
			for _, incl := range []float64{0, geom.Rad(53), geom.Rad(97.6)} {
				el := Elements{
					SemiMajorAxis: geom.EarthRadius + 630e3,
					Eccentricity:  ecc,
					Inclination:   incl,
					RAAN:          1.1,
					ArgPerigee:    0.7,
					MeanAnomaly:   2.3,
				}
				k, err := NewKeplerPropagator(el, j2)
				if err != nil {
					t.Fatal(err)
				}
				period := el.Period()
				times := []float64{-3 * period, -1234.5, -0.1, 0, 0.1}
				for ts := 0.0; ts < 4*period; ts += period / 37 {
					times = append(times, ts)
				}
				for _, ts := range times {
					got, want := k.PositionECI(ts), k.StateECI(ts).Position
					if math.Float64bits(got.X) != math.Float64bits(want.X) ||
						math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
						math.Float64bits(got.Z) != math.Float64bits(want.Z) {
						t.Fatalf("j2=%v e=%v i=%v t=%v: PositionECI %v, StateECI %v", j2, ecc, incl, ts, got, want)
					}
				}
			}
		}
	}
}
