// Package orbit implements the orbital mechanics substrate: Keplerian
// orbital elements, Kepler's-equation solving, two-body propagation to
// Earth-centered inertial coordinates, and the secular J2 perturbation model
// that captures the dominant drift of low-Earth orbits.
//
// The constellations studied in the paper (Starlink, Kuiper, Telesat) all
// use circular or near-circular orbits described by their FCC/ITU filings in
// terms of altitude, inclination, and plane/phase spacing; this package is
// the layer that turns those parameters into time-varying satellite
// positions.
package orbit

import (
	"errors"
	"fmt"
	"math"

	"hypatia/internal/geom"
)

// Elements is a classical Keplerian orbital element set at a reference
// epoch. Angles are radians, the semi-major axis is meters.
type Elements struct {
	SemiMajorAxis float64 // a, meters
	Eccentricity  float64 // e, dimensionless, in [0, 1)
	Inclination   float64 // i, radians
	RAAN          float64 // Ω, right ascension of the ascending node, radians
	ArgPerigee    float64 // ω, argument of perigee, radians
	MeanAnomaly   float64 // M, mean anomaly at epoch, radians
}

// Validate reports whether the element set describes a propagatable
// Earth orbit.
func (e Elements) Validate() error {
	if e.SemiMajorAxis <= geom.EarthRadius {
		return fmt.Errorf("orbit: semi-major axis %.0f m is inside the Earth", e.SemiMajorAxis)
	}
	if e.Eccentricity < 0 || e.Eccentricity >= 1 {
		return fmt.Errorf("orbit: eccentricity %v outside [0,1)", e.Eccentricity)
	}
	if math.IsNaN(e.Inclination) || math.IsNaN(e.RAAN) || math.IsNaN(e.ArgPerigee) || math.IsNaN(e.MeanAnomaly) {
		return errors.New("orbit: element set contains NaN")
	}
	return nil
}

// Circular builds the element set of a circular orbit at altitude h meters
// above the WGS72 equatorial radius, with the given inclination, RAAN, and
// initial mean anomaly (all radians). Circular orbits have no perigee, so
// the argument of perigee is zero and the mean anomaly doubles as the
// argument of latitude at epoch.
func Circular(h, inclination, raan, meanAnomaly float64) Elements {
	return Elements{
		SemiMajorAxis: geom.EarthRadius + h,
		Eccentricity:  0,
		Inclination:   inclination,
		RAAN:          raan,
		ArgPerigee:    0,
		MeanAnomaly:   meanAnomaly,
	}
}

// Altitude returns the orbit's mean altitude above the WGS72 equatorial
// radius, meters.
func (e Elements) Altitude() float64 { return e.SemiMajorAxis - geom.EarthRadius }

// MeanMotion returns the mean motion n = sqrt(mu/a^3) in rad/s.
func (e Elements) MeanMotion() float64 {
	return math.Sqrt(geom.EarthMu / (e.SemiMajorAxis * e.SemiMajorAxis * e.SemiMajorAxis))
}

// Period returns the orbital period in seconds. At Starlink's 550 km this is
// roughly 95.5 minutes — the "~100 minutes" the paper quotes.
func (e Elements) Period() float64 { return 2 * math.Pi / e.MeanMotion() }

// Speed returns the orbital speed of a circular orbit with this semi-major
// axis, m/s. At 550 km this exceeds 7.5 km/s (27,000 km/h).
func (e Elements) Speed() float64 { return math.Sqrt(geom.EarthMu / e.SemiMajorAxis) }

// SolveKepler solves Kepler's equation M = E - e*sin(E) for the eccentric
// anomaly E via Newton-Raphson, which converges quadratically for the
// eccentricities of interest (e < 0.9).
func SolveKepler(meanAnomaly, eccentricity float64) float64 {
	m := math.Mod(meanAnomaly, 2*math.Pi)
	if m < 0 {
		m += 2 * math.Pi
	}
	if eccentricity == 0 {
		return m
	}
	// Standard starter: E0 = M + e*sin(M) is good for small e.
	ecc := m + eccentricity*math.Sin(m)
	for i := 0; i < 30; i++ {
		f := ecc - eccentricity*math.Sin(ecc) - m
		fp := 1 - eccentricity*math.Cos(ecc)
		d := f / fp
		ecc -= d
		if math.Abs(d) < 1e-13 {
			break
		}
	}
	return ecc
}

// TrueAnomaly converts an eccentric anomaly to the true anomaly for the
// given eccentricity.
func TrueAnomaly(eccAnomaly, eccentricity float64) float64 {
	if eccentricity == 0 {
		return eccAnomaly
	}
	s := math.Sqrt(1+eccentricity) * math.Sin(eccAnomaly/2)
	c := math.Sqrt(1-eccentricity) * math.Cos(eccAnomaly/2)
	return 2 * math.Atan2(s, c)
}

// State is an inertial position/velocity pair, meters and m/s.
type State struct {
	Position geom.Vec3
	Velocity geom.Vec3
}

// propagateAt computes the two-body state from an element set whose mean
// anomaly has already been advanced to the target time.
func propagateAt(e Elements) State {
	ecc := SolveKepler(e.MeanAnomaly, e.Eccentricity)
	nu := TrueAnomaly(ecc, e.Eccentricity)
	p := e.SemiMajorAxis * (1 - e.Eccentricity*e.Eccentricity)
	r := p / (1 + e.Eccentricity*math.Cos(nu))

	// Position and velocity in the perifocal frame.
	cosNu, sinNu := math.Cos(nu), math.Sin(nu)
	rp := geom.Vec3{X: r * cosNu, Y: r * sinNu, Z: 0}
	sqrtMuP := math.Sqrt(geom.EarthMu / p)
	vp := geom.Vec3{X: -sqrtMuP * sinNu, Y: sqrtMuP * (e.Eccentricity + cosNu), Z: 0}

	// Rotate perifocal -> ECI: Rz(Ω) Rx(i) Rz(ω).
	cosO, sinO := math.Cos(e.RAAN), math.Sin(e.RAAN)
	cosI, sinI := math.Cos(e.Inclination), math.Sin(e.Inclination)
	cosW, sinW := math.Cos(e.ArgPerigee), math.Sin(e.ArgPerigee)

	rot := func(v geom.Vec3) geom.Vec3 {
		// Rz(ω) applied first.
		x1 := cosW*v.X - sinW*v.Y
		y1 := sinW*v.X + cosW*v.Y
		z1 := v.Z
		// Rx(i).
		x2 := x1
		y2 := cosI*y1 - sinI*z1
		z2 := sinI*y1 + cosI*z1
		// Rz(Ω).
		return geom.Vec3{
			X: cosO*x2 - sinO*y2,
			Y: sinO*x2 + cosO*y2,
			Z: z2,
		}
	}
	return State{Position: rot(rp), Velocity: rot(vp)}
}

// Propagator produces inertial satellite states as a function of time
// (seconds since the constellation epoch). The forwarding-state hot paths
// call PositionECI once per satellite per instant, so every implementation
// must compute states in registers and stack values only
// (TestAllocGuardSnapshotInto).
type Propagator interface {
	// StateECI returns the inertial state at t seconds past epoch.
	StateECI(t float64) State
	// PositionECI returns just the inertial position at t seconds past
	// epoch; implementations may compute it more cheaply than StateECI.
	PositionECI(t float64) geom.Vec3
}

// KeplerPropagator propagates an element set under two-body dynamics with an
// optional secular J2 correction. With J2 enabled, the right ascension of
// the ascending node, the argument of perigee, and the mean anomaly drift at
// their secular rates; this is the same order of fidelity as the SGP4-based
// ns-3 mobility model Hypatia adapts (whose residual error the paper judges
// immaterial below a few hours of simulated time).
type KeplerPropagator struct {
	elements Elements
	n        float64 // mean motion, rad/s
	j2       bool
	raanDot  float64 // secular dΩ/dt, rad/s
	argpDot  float64 // secular dω/dt, rad/s
	mDot     float64 // secular mean-anomaly correction rate, rad/s
}

// NewKeplerPropagator builds a propagator for the given element set.
// If j2 is true, secular J2 drift is applied.
func NewKeplerPropagator(e Elements, j2 bool) (*KeplerPropagator, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	k := &KeplerPropagator{elements: e, n: e.MeanMotion(), j2: j2}
	if j2 {
		p := e.SemiMajorAxis * (1 - e.Eccentricity*e.Eccentricity)
		fac := 1.5 * geom.EarthJ2 * (geom.EarthRadius / p) * (geom.EarthRadius / p) * k.n
		cosI := math.Cos(e.Inclination)
		sinI2 := math.Sin(e.Inclination) * math.Sin(e.Inclination)
		k.raanDot = -fac * cosI
		k.argpDot = fac * (2 - 2.5*sinI2)
		k.mDot = fac * math.Sqrt(1-e.Eccentricity*e.Eccentricity) * (1 - 1.5*sinI2)
	}
	return k, nil
}

// Elements returns the epoch element set the propagator was built from.
func (k *KeplerPropagator) Elements() Elements { return k.elements }

// ElementsAt returns the osculating (secularly drifted) element set at time
// t seconds past epoch.
func (k *KeplerPropagator) ElementsAt(t float64) Elements {
	e := k.elements
	e.MeanAnomaly = math.Mod(e.MeanAnomaly+(k.n+k.mDot)*t, 2*math.Pi)
	if k.j2 {
		e.RAAN = math.Mod(e.RAAN+k.raanDot*t, 2*math.Pi)
		e.ArgPerigee = math.Mod(e.ArgPerigee+k.argpDot*t, 2*math.Pi)
	}
	return e
}

// StateECI implements Propagator.
func (k *KeplerPropagator) StateECI(t float64) State {
	return propagateAt(k.ElementsAt(t))
}

// PositionECI implements Propagator.
func (k *KeplerPropagator) PositionECI(t float64) geom.Vec3 {
	return k.StateECI(t).Position
}
