// Package geom provides the geodetic and reference-frame foundation used by
// the rest of the simulator: Cartesian vector algebra, the WGS72 Earth model
// (the geodetic system Hypatia's TLEs are expressed in), conversions between
// geodetic coordinates, the Earth-centered Earth-fixed (ECEF) frame and the
// Earth-centered inertial (ECI) frame, sidereal-time computation, and the
// line-of-sight quantities (elevation, azimuth, slant range) that govern
// ground-station-to-satellite connectivity.
//
// Conventions: all lengths are meters, all angles radians unless a function
// name says otherwise, and all times are seconds. Latitudes are positive
// north, longitudes positive east.
package geom

import (
	"fmt"
	"math"
)

// Physical and WGS72 Earth-model constants. Hypatia generates TLEs in the
// WGS72 geodetic standard, so the same constants are used here for orbital
// mechanics and frame conversions.
const (
	// SpeedOfLight is the speed of light in vacuum, m/s. Both laser
	// inter-satellite links and radio ground-satellite links propagate at c.
	SpeedOfLight = 299792458.0

	// EarthRadius is the WGS72 equatorial radius of the Earth, meters.
	EarthRadius = 6378135.0

	// EarthMu is the WGS72 geocentric gravitational constant, m^3/s^2.
	EarthMu = 3.986008e14

	// EarthJ2 is the WGS72 second zonal harmonic of the geopotential,
	// responsible for the dominant secular orbital perturbations.
	EarthJ2 = 1.082616e-3

	// EarthFlattening is the WGS72 ellipsoid flattening (1/298.26).
	EarthFlattening = 1.0 / 298.26

	// EarthRotationRate is the rotation rate of the Earth, rad/s
	// (sidereal day of 86164.0905 s).
	EarthRotationRate = 7.292115146706979e-5

	// SecondsPerDay is the length of a mean solar day in seconds.
	SecondsPerDay = 86400.0
)

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180.0 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180.0 }

// Vec3 is a Cartesian vector, meters.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalized to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Distance returns the Euclidean distance between points v and w.
func (v Vec3) Distance(w Vec3) float64 { return v.Sub(w).Norm() }

// String formats the vector with meter precision.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.0f, %.0f, %.0f)", v.X, v.Y, v.Z)
}

// LLA is a geodetic position: latitude and longitude in radians, altitude in
// meters above the reference ellipsoid.
type LLA struct {
	Lat, Lon, Alt float64
}

// LLADeg builds an LLA from degrees latitude/longitude and meters altitude.
func LLADeg(latDeg, lonDeg, altM float64) LLA {
	return LLA{Lat: Rad(latDeg), Lon: Rad(lonDeg), Alt: altM}
}

// ToECEF converts a geodetic position to ECEF Cartesian coordinates on the
// WGS72 ellipsoid.
func (p LLA) ToECEF() Vec3 {
	e2 := EarthFlattening * (2 - EarthFlattening) // first eccentricity squared
	sinLat := math.Sin(p.Lat)
	cosLat := math.Cos(p.Lat)
	n := EarthRadius / math.Sqrt(1-e2*sinLat*sinLat)
	return Vec3{
		X: (n + p.Alt) * cosLat * math.Cos(p.Lon),
		Y: (n + p.Alt) * cosLat * math.Sin(p.Lon),
		Z: (n*(1-e2) + p.Alt) * sinLat,
	}
}

// ECEFToLLA converts an ECEF position to geodetic coordinates on the WGS72
// ellipsoid using Bowring's iterative method (converges in a few iterations
// to sub-millimeter accuracy for LEO-relevant altitudes).
func ECEFToLLA(v Vec3) LLA {
	e2 := EarthFlattening * (2 - EarthFlattening)
	lon := math.Atan2(v.Y, v.X)
	p := math.Hypot(v.X, v.Y)
	if p == 0 {
		// On the polar axis.
		alt := math.Abs(v.Z) - EarthRadius*(1-EarthFlattening)
		lat := math.Pi / 2
		if v.Z < 0 {
			lat = -lat
		}
		return LLA{Lat: lat, Lon: lon, Alt: alt}
	}
	lat := math.Atan2(v.Z, p*(1-e2))
	for i := 0; i < 8; i++ {
		sinLat := math.Sin(lat)
		n := EarthRadius / math.Sqrt(1-e2*sinLat*sinLat)
		next := math.Atan2(v.Z+e2*n*sinLat, p)
		if math.Abs(next-lat) < 1e-12 {
			lat = next
			break
		}
		lat = next
	}
	sinLat := math.Sin(lat)
	n := EarthRadius / math.Sqrt(1-e2*sinLat*sinLat)
	alt := p/math.Cos(lat) - n
	return LLA{Lat: lat, Lon: lon, Alt: alt}
}

// GMST returns the Greenwich Mean Sidereal Time angle in radians, in
// [0, 2π), for a time expressed in seconds since the simulation epoch.
// gmst0 is the sidereal angle at the epoch itself.
//
// The simulator anchors constellations at an arbitrary epoch; the absolute
// sidereal phase only rotates the entire ECEF frame relative to ECI and has
// no effect on relative constellation geometry, so gmst0 = 0 is a valid
// default and is what Epoch-less call sites use.
func GMST(gmst0, secondsSinceEpoch float64) float64 {
	theta := math.Mod(gmst0+EarthRotationRate*secondsSinceEpoch, 2*math.Pi)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	return theta
}

// GMSTFromJulian returns the Greenwich Mean Sidereal Time in radians for a
// given Julian date (UT1), using the IAU 1982 expression. It is used when a
// constellation is pinned to an absolute calendar epoch (e.g. when emitting
// TLEs whose epoch field must be meaningful to external tools).
func GMSTFromJulian(jd float64) float64 {
	t := (jd - 2451545.0) / 36525.0
	// Seconds of sidereal time (IAU 1982).
	gmstSec := 67310.54841 + (876600.0*3600.0+8640184.812866)*t + 0.093104*t*t - 6.2e-6*t*t*t
	gmstSec = math.Mod(gmstSec, SecondsPerDay)
	if gmstSec < 0 {
		gmstSec += SecondsPerDay
	}
	return gmstSec * 2 * math.Pi / SecondsPerDay
}

// ECIToECEF rotates an ECI position into the ECEF frame given the current
// sidereal angle theta (radians).
func ECIToECEF(eci Vec3, theta float64) Vec3 {
	c, s := math.Cos(theta), math.Sin(theta)
	return Vec3{
		X: c*eci.X + s*eci.Y,
		Y: -s*eci.X + c*eci.Y,
		Z: eci.Z,
	}
}

// ECEFToECI rotates an ECEF position into the ECI frame given the current
// sidereal angle theta (radians).
func ECEFToECI(ecef Vec3, theta float64) Vec3 {
	c, s := math.Cos(theta), math.Sin(theta)
	return Vec3{
		X: c*ecef.X - s*ecef.Y,
		Y: s*ecef.X + c*ecef.Y,
		Z: ecef.Z,
	}
}

// Haversine returns the great-circle distance in meters between two geodetic
// points over a sphere of EarthRadius. It is the basis of the paper's
// "geodesic RTT" (the minimum achievable round-trip at the speed of light).
func Haversine(a, b LLA) float64 {
	dLat := b.Lat - a.Lat
	dLon := b.Lon - a.Lon
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(a.Lat)*math.Cos(b.Lat)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadius * math.Asin(math.Min(1, math.Sqrt(h)))
}

// GeodesicRTT returns the paper's "geodesic RTT" in seconds between two
// geodetic points: the time to travel the great-circle distance and back at
// the speed of light in vacuum.
func GeodesicRTT(a, b LLA) float64 {
	return 2 * Haversine(a, b) / SpeedOfLight
}

// LookAngles describes how a target (satellite) appears in the sky from an
// observer (ground station): elevation above the local horizon, azimuth
// clockwise from true north, and slant range, all in the observer's local
// east-north-up frame.
type LookAngles struct {
	Elevation float64 // radians above the horizon; negative if below
	Azimuth   float64 // radians clockwise from north, in [0, 2π)
	Range     float64 // meters
}

// Look computes the look angles from an observer at geodetic position obs to
// a target at ECEF position target. The local vertical is the geodetic
// normal of the observer.
func Look(obs LLA, target Vec3) LookAngles {
	o := obs.ToECEF()
	d := target.Sub(o)
	r := d.Norm()

	sinLat, cosLat := math.Sin(obs.Lat), math.Cos(obs.Lat)
	sinLon, cosLon := math.Sin(obs.Lon), math.Cos(obs.Lon)

	// ENU basis vectors at the observer.
	east := Vec3{-sinLon, cosLon, 0}
	north := Vec3{-sinLat * cosLon, -sinLat * sinLon, cosLat}
	up := Vec3{cosLat * cosLon, cosLat * sinLon, sinLat}

	e := d.Dot(east)
	n := d.Dot(north)
	u := d.Dot(up)

	az := math.Atan2(e, n)
	if az < 0 {
		az += 2 * math.Pi
	}
	el := math.Asin(u / r)
	return LookAngles{Elevation: el, Azimuth: az, Range: r}
}

// Elevation returns just the elevation angle (radians) of target as seen
// from obs. It is the quantity compared against a constellation's minimum
// angle of elevation to decide GS-satellite connectivity.
func Elevation(obs LLA, target Vec3) float64 {
	return Look(obs, target).Elevation
}

// Visible reports whether a target at ECEF position target is visible from
// the observer at or above the given minimum elevation angle (radians).
func Visible(obs LLA, target Vec3, minElevation float64) bool {
	return Elevation(obs, target) >= minElevation
}

// MaxSlantRange returns the maximum distance at which a satellite at orbital
// height h (meters above the surface) can be seen from the ground at or
// above minimum elevation minEl (radians), over a spherical Earth. It gives
// a cheap pre-filter radius for visibility searches.
func MaxSlantRange(h, minEl float64) float64 {
	re := EarthRadius
	rs := re + h
	// Law of sines in the observer-satellite-geocenter triangle:
	// the angle at the observer is 90° + minEl.
	sinGamma := re / rs * math.Sin(math.Pi/2+minEl)
	gamma := math.Asin(sinGamma)                  // angle at the satellite
	beta := math.Pi - (math.Pi/2 + minEl) - gamma // central angle
	return math.Sqrt(re*re + rs*rs - 2*re*rs*math.Cos(beta))
}
