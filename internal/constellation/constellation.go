// Package constellation turns the orbital design parameters that operators
// disclose in FCC/ITU filings — shells described by altitude, inclination,
// orbit count and satellites per orbit — into concrete satellite fleets with
// propagators, inter-satellite link (ISL) topologies, and ground-satellite
// visibility rules.
//
// The package ships the Table 1 configurations of the paper (Starlink's
// first deployment phase, Kuiper, and Telesat) and supports arbitrary custom
// shells. The default ISL interconnect is "+Grid": each satellite links to
// its two neighbors within the orbit and to the corresponding satellite in
// each adjacent orbit, the pattern the paper adopts from prior satellite
// networking literature. Constellations that eschew ISLs entirely
// (bent-pipe designs, Appendix A of the paper) are supported by disabling
// ISL generation.
package constellation

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hypatia/internal/geom"
	"hypatia/internal/orbit"
)

// Shell describes one orbital shell: a set of orbits sharing altitude and
// inclination, uniformly spread in right ascension, each holding uniformly
// spaced satellites.
type Shell struct {
	Name         string  // e.g. "S1", "K1", "T1"
	AltitudeKm   float64 // operating height above sea level, km
	Orbits       int     // number of orbital planes
	SatsPerOrbit int     // satellites per plane
	IncDeg       float64 // inclination, degrees

	// Phasing selects how satellites in adjacent planes are offset along
	// the orbit. The zero value, PhaseAlternating, matches the original
	// Hypatia's TLE generator: odd-numbered planes are shifted by half an
	// in-plane slot. PhaseWalker applies classical Walker-delta phasing
	// with factor WalkerF.
	Phasing PhasePolicy

	// WalkerF is the Walker-delta phasing factor F in [0, Orbits), used
	// only with PhaseWalker: the satellites of plane o are shifted along
	// the orbit by o * F / Orbits in-plane slots, making the cumulative
	// shift around all planes exactly F whole slots (so the +Grid seam
	// connects genuinely adjacent satellites).
	WalkerF int
}

// PhasePolicy selects the inter-plane phase offset scheme.
type PhasePolicy int

const (
	// PhaseAlternating shifts odd planes by half an in-plane slot, the
	// scheme Hypatia's TLE generation uses (phase_diff). The seam jump is
	// at most half a slot, so all +Grid ISLs remain physically realizable.
	PhaseAlternating PhasePolicy = iota
	// PhaseWalker applies Walker-delta phasing with factor WalkerF.
	PhaseWalker
)

// Sats returns the number of satellites in the shell.
func (s Shell) Sats() int { return s.Orbits * s.SatsPerOrbit }

// Validate reports whether the shell is generatable.
func (s Shell) Validate() error {
	if s.Orbits <= 0 || s.SatsPerOrbit <= 0 {
		return fmt.Errorf("constellation: shell %q has %d orbits x %d sats", s.Name, s.Orbits, s.SatsPerOrbit)
	}
	if s.AltitudeKm <= 0 || s.AltitudeKm > GEOAltitudeKm+100 {
		return fmt.Errorf("constellation: shell %q altitude %v km outside LEO..GEO range", s.Name, s.AltitudeKm)
	}
	if s.IncDeg < 0 || s.IncDeg > 180 {
		return fmt.Errorf("constellation: shell %q inclination %v out of range", s.Name, s.IncDeg)
	}
	if s.IncDeg == 0 && s.Orbits > 1 {
		return fmt.Errorf("constellation: shell %q has %d coincident equatorial planes", s.Name, s.Orbits)
	}
	if s.Phasing == PhaseWalker && (s.WalkerF < 0 || s.WalkerF >= s.Orbits) {
		return fmt.Errorf("constellation: shell %q Walker phasing %d outside [0, %d)", s.Name, s.WalkerF, s.Orbits)
	}
	return nil
}

// MaxISLRange returns the longest physically possible line-of-sight ISL at
// altitude h meters: the chord that grazes the Earth's surface. Any longer
// "link" would pass through the Earth.
func MaxISLRange(h float64) float64 {
	r := geom.EarthRadius
	return 2 * math.Sqrt((r+h)*(r+h)-r*r)
}

// Table 1 of the paper: shell configurations for Starlink's first phase,
// Kuiper, and Telesat, with Hypatia's alternating half-slot phasing.
var (
	StarlinkS1 = Shell{Name: "S1", AltitudeKm: 550, Orbits: 72, SatsPerOrbit: 22, IncDeg: 53}
	StarlinkS2 = Shell{Name: "S2", AltitudeKm: 1110, Orbits: 32, SatsPerOrbit: 50, IncDeg: 53.8}
	StarlinkS3 = Shell{Name: "S3", AltitudeKm: 1130, Orbits: 8, SatsPerOrbit: 50, IncDeg: 74}
	StarlinkS4 = Shell{Name: "S4", AltitudeKm: 1275, Orbits: 5, SatsPerOrbit: 75, IncDeg: 81}
	StarlinkS5 = Shell{Name: "S5", AltitudeKm: 1325, Orbits: 6, SatsPerOrbit: 75, IncDeg: 70}

	KuiperK1 = Shell{Name: "K1", AltitudeKm: 630, Orbits: 34, SatsPerOrbit: 34, IncDeg: 51.9}
	KuiperK2 = Shell{Name: "K2", AltitudeKm: 610, Orbits: 36, SatsPerOrbit: 36, IncDeg: 42}
	KuiperK3 = Shell{Name: "K3", AltitudeKm: 590, Orbits: 28, SatsPerOrbit: 28, IncDeg: 33}

	TelesatT1 = Shell{Name: "T1", AltitudeKm: 1015, Orbits: 27, SatsPerOrbit: 13, IncDeg: 98.98}
	TelesatT2 = Shell{Name: "T2", AltitudeKm: 1325, Orbits: 40, SatsPerOrbit: 33, IncDeg: 50.88}
)

// Minimum angles of elevation used in the paper's experiments, degrees.
const (
	StarlinkMinElevDeg = 25
	KuiperMinElevDeg   = 30
	TelesatMinElevDeg  = 10
)

// GEOAltitudeKm is the geostationary altitude above the equator, km.
const GEOAltitudeKm = 35786

// GEORing returns a shell of n equally spaced geostationary satellites in
// the equatorial plane. Satellites at this altitude complete one orbit per
// sidereal day and therefore hover over fixed longitudes — the regime of
// legacy broadband constellations like HughesNet and Viasat, whose
// hundreds-of-milliseconds latency the paper contrasts with LEO (§2.4, and
// GEO-LEO support is called out in §7). Use it in a Config of its own or
// alongside LEO shells; the +Grid interconnect gives the ring intra-orbit
// ISLs.
func GEORing(name string, n int) Shell {
	return Shell{Name: name, AltitudeKm: GEOAltitudeKm, Orbits: 1, SatsPerOrbit: n, IncDeg: 0}
}

// Satellite is one generated satellite with its propagator.
type Satellite struct {
	Index      int // index within the constellation, 0-based
	Name       string
	ShellIndex int // which shell the satellite belongs to
	Orbit      int // orbital plane index within the shell
	InOrbit    int // slot index within the plane
	Propagator orbit.Propagator
	Elements   orbit.Elements
}

// ISL is an undirected laser inter-satellite link between two satellites,
// identified by constellation index. Satellite indices double as node ids
// in the routing topology (satellites occupy 0..S-1).
type ISL struct {
	A, B int
}

// ISLMode selects the inter-satellite interconnect.
type ISLMode int

const (
	// ISLPlusGrid is the "+Grid" mesh: 4 ISLs per satellite — two
	// intra-orbit neighbors, two inter-orbit neighbors (with wraparound in
	// both directions). The paper's default.
	ISLPlusGrid ISLMode = iota
	// ISLNone generates no ISLs; connectivity is bent-pipe via ground
	// station relays (Appendix A).
	ISLNone
)

// Config describes a constellation to generate.
type Config struct {
	Name       string
	Shells     []Shell
	MinElevDeg float64 // minimum angle of elevation for GS connectivity
	ISLMode    ISLMode
	J2         bool // enable secular J2 drift in the propagators
	// EpochGMST is the sidereal angle at t=0 (radians); rotates the whole
	// constellation relative to the Earth-fixed frame.
	EpochGMST float64
}

// Constellation is a generated satellite fleet plus its ISL topology.
type Constellation struct {
	Name       string
	Shells     []Shell
	MinElev    float64 // radians
	Satellites []Satellite
	ISLs       []ISL
	epochGMST  float64

	shellFirst []int // index of the first satellite of each shell
}

// Starlink returns the paper's Starlink phase-one configuration with the
// given shells (use StarlinkS1 alone for the paper's main experiments).
func Starlink(shells ...Shell) Config {
	if len(shells) == 0 {
		shells = []Shell{StarlinkS1}
	}
	return Config{Name: "Starlink", Shells: shells, MinElevDeg: StarlinkMinElevDeg}
}

// Kuiper returns the paper's Kuiper configuration (K1 by default).
func Kuiper(shells ...Shell) Config {
	if len(shells) == 0 {
		shells = []Shell{KuiperK1}
	}
	return Config{Name: "Kuiper", Shells: shells, MinElevDeg: KuiperMinElevDeg}
}

// Telesat returns the paper's Telesat configuration (T1 by default).
func Telesat(shells ...Shell) Config {
	if len(shells) == 0 {
		shells = []Shell{TelesatT1}
	}
	return Config{Name: "Telesat", Shells: shells, MinElevDeg: TelesatMinElevDeg}
}

// Generate builds the satellite fleet and ISL topology for a configuration.
// It allocates per structure, not per satellite: the fleet, its propagators,
// its names and its ISLs each come from one allocation sized from the shells
// (TestAllocGuardConstructionTopology).
func Generate(cfg Config) (*Constellation, error) {
	if len(cfg.Shells) == 0 {
		return nil, fmt.Errorf("constellation: %q has no shells", cfg.Name)
	}
	if cfg.MinElevDeg < 0 || cfg.MinElevDeg >= 90 {
		return nil, fmt.Errorf("constellation: min elevation %v out of range [0, 90)", cfg.MinElevDeg)
	}
	sats, nameBytes := 0, 0
	for _, sh := range cfg.Shells {
		if err := sh.Validate(); err != nil {
			return nil, err
		}
		sats += sh.Sats()
		// "<cfg>-<shell>-<orbit>-<slot>", at most this long.
		nameBytes += sh.Sats() * (len(cfg.Name) + len(sh.Name) + 3 + len(strconv.Itoa(sh.Orbits-1)) + len(strconv.Itoa(sh.SatsPerOrbit-1)))
	}
	c := &Constellation{
		Name:       cfg.Name,
		Shells:     cfg.Shells,
		MinElev:    geom.Rad(cfg.MinElevDeg),
		epochGMST:  cfg.EpochGMST,
		Satellites: make([]Satellite, 0, sats),
		shellFirst: make([]int, 0, len(cfg.Shells)),
	}
	props := make([]orbit.KeplerPropagator, sats)
	var names strings.Builder
	names.Grow(nameBytes)
	var num [20]byte
	for si, sh := range cfg.Shells {
		c.shellFirst = append(c.shellFirst, len(c.Satellites))
		raanStep := 2 * math.Pi / float64(sh.Orbits)
		maStep := 2 * math.Pi / float64(sh.SatsPerOrbit)
		for o := 0; o < sh.Orbits; o++ {
			raan := float64(o) * raanStep
			var phase float64
			switch sh.Phasing {
			case PhaseAlternating:
				phase = float64(o%2) * 0.5 * maStep
			case PhaseWalker:
				phase = float64(o) * float64(sh.WalkerF) / float64(sh.Orbits) * maStep
			}
			for s := 0; s < sh.SatsPerOrbit; s++ {
				ma := math.Mod(float64(s)*maStep+phase, 2*math.Pi)
				el := orbit.Circular(sh.AltitudeKm*1000, geom.Rad(sh.IncDeg), raan, ma)
				prop := &props[len(c.Satellites)]
				if err := prop.Init(el, cfg.J2); err != nil {
					return nil, fmt.Errorf("constellation: shell %q orbit %d sat %d: %w", sh.Name, o, s, err)
				}
				start := names.Len()
				names.WriteString(cfg.Name)
				names.WriteByte('-')
				names.WriteString(sh.Name)
				names.WriteByte('-')
				names.Write(strconv.AppendInt(num[:0], int64(o), 10))
				names.WriteByte('-')
				names.Write(strconv.AppendInt(num[:0], int64(s), 10))
				c.Satellites = append(c.Satellites, Satellite{
					Index:      len(c.Satellites),
					Name:       names.String()[start:],
					ShellIndex: si,
					Orbit:      o,
					InOrbit:    s,
					Propagator: prop,
					Elements:   el,
				})
			}
		}
	}
	if cfg.ISLMode == ISLPlusGrid {
		c.ISLs = plusGrid(cfg.Shells, c.shellFirst)
	}
	return c, nil
}

// plusGrid builds the +Grid interconnect independently within each shell:
// satellite (o, s) links to (o, s+1) and ((o+1) mod O, s), so there are at
// most two links per satellite.
func plusGrid(shells []Shell, first []int) []ISL {
	sats := 0
	for _, sh := range shells {
		sats += sh.Sats()
	}
	isls := make([]ISL, 0, 2*sats)
	for si, sh := range shells {
		base := first[si]
		idx := func(o, s int) int {
			return base + o*sh.SatsPerOrbit + s
		}
		for o := 0; o < sh.Orbits; o++ {
			for s := 0; s < sh.SatsPerOrbit; s++ {
				// Intra-orbit successor (wraps within the plane). A plane of
				// one satellite has no intra-orbit link.
				if sh.SatsPerOrbit > 1 {
					next := (s + 1) % sh.SatsPerOrbit
					if !(sh.SatsPerOrbit == 2 && s == 1) { // avoid duplicating a 2-sat plane's single link
						isls = append(isls, ISL{A: idx(o, s), B: idx(o, next)})
					}
				}
				// Inter-orbit neighbor (wraps across the seam). A shell of
				// one plane has no inter-orbit links.
				if sh.Orbits > 1 {
					nextO := (o + 1) % sh.Orbits
					if !(sh.Orbits == 2 && o == 1) {
						isls = append(isls, ISL{A: idx(o, s), B: idx(nextO, s)})
					}
				}
			}
		}
	}
	return isls
}

// NumSatellites returns the total satellite count.
func (c *Constellation) NumSatellites() int { return len(c.Satellites) }

// GMSTAt returns the sidereal angle at simulation time t (seconds).
func (c *Constellation) GMSTAt(t float64) float64 { return geom.GMST(c.epochGMST, t) }

// PositionECI returns the inertial position of satellite i at time t.
func (c *Constellation) PositionECI(i int, t float64) geom.Vec3 {
	return c.Satellites[i].Propagator.PositionECI(t)
}

// PositionECEF returns the Earth-fixed position of satellite i at time t.
func (c *Constellation) PositionECEF(i int, t float64) geom.Vec3 {
	return geom.ECIToECEF(c.PositionECI(i, t), c.GMSTAt(t))
}

// PositionsECEF computes the Earth-fixed positions of all satellites at time
// t, bitwise equal to PositionECEF for each: the sidereal angle's cosine
// and sine are taken once for the instant. The result is freshly allocated
// unless dst has sufficient capacity.
func (c *Constellation) PositionsECEF(t float64, dst []geom.Vec3) []geom.Vec3 {
	theta := c.GMSTAt(t)
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	if cap(dst) < len(c.Satellites) {
		dst = make([]geom.Vec3, len(c.Satellites))
	}
	dst = dst[:len(c.Satellites)]
	for i := range c.Satellites {
		dst[i] = geom.ECIToECEFCosSin(c.Satellites[i].Propagator.PositionECI(t), cosT, sinT)
	}
	return dst
}

// MaxGSLRange returns the ground-satellite connectivity radius for a
// satellite at altitude h under minimum elevation minEl, using the same
// criterion as the original Hypatia: the satellite's coverage cone has
// ground radius h/tan(minEl), so a ground station connects when the
// straight-line distance is at most sqrt((h/tan(minEl))^2 + h^2) =
// h/sin(minEl). This flat-Earth cone is slightly more permissive than the
// exact spherical-geometry elevation check — a fidelity-relevant choice:
// it is what makes marginal high-latitude coverage (e.g. Saint Petersburg
// on Kuiper's 51.9-degree shell) mostly-connected-with-outages, as the
// paper reports, rather than never connected.
func MaxGSLRange(h, minEl float64) float64 { return NewGSLCone(minEl).Range(h) }

// GSLCone is MaxGSLRange's criterion for one minimum elevation with the
// elevation's sine taken once, for a scan that ranges many satellites under
// the same elevation. Range(h) equals MaxGSLRange(h, minEl) bit for bit.
type GSLCone struct {
	minEl, sin float64
}

// NewGSLCone returns the cone of minimum elevation minEl (radians).
func NewGSLCone(minEl float64) GSLCone { return GSLCone{minEl: minEl, sin: math.Sin(minEl)} }

// Range returns the connectivity radius for a satellite at altitude h.
func (c GSLCone) Range(h float64) float64 {
	if c.minEl <= 0 {
		// Degenerate to the horizon-limited slant range.
		return geom.MaxSlantRange(h, 0)
	}
	return h / c.sin
}

// VisibleFrom returns the indices of satellites connectable from the
// geodetic position obs at time t: within MaxGSLRange for their current
// altitude and above the observer's horizon. positions must be the ECEF
// satellite positions at t (from PositionsECEF); pass nil to have them
// computed.
func (c *Constellation) VisibleFrom(obs geom.LLA, t float64, positions []geom.Vec3) []int {
	return c.VisibleFromInto(obs, t, positions, nil)
}

// VisibleFromInto is VisibleFrom with caller-provided result storage: the
// indices are appended to out[:0], so a buffer threaded across calls makes
// repeated visibility scans allocation-free in steady state.
func (c *Constellation) VisibleFromInto(obs geom.LLA, t float64, positions []geom.Vec3, out []int) []int {
	if positions == nil {
		positions = c.PositionsECEF(t, nil)
	}
	obsECEF := obs.ToECEF()
	cone := NewGSLCone(c.MinElev)
	out = out[:0]
	for i, p := range positions {
		h := p.Norm() - geom.EarthRadius // instantaneous altitude
		if p.Distance(obsECEF) > cone.Range(h) {
			continue
		}
		if geom.Elevation(obs, p) < 0 {
			continue // below the horizon: the cone criterion alone can
			// admit such satellites at very low minimum elevations
		}
		out = append(out, i)
	}
	return out
}

// ISLDegree returns the number of ISLs attached to each satellite.
func (c *Constellation) ISLDegree() []int {
	deg := make([]int, len(c.Satellites))
	for _, l := range c.ISLs {
		deg[l.A]++
		deg[l.B]++
	}
	return deg
}
