package constellation

import (
	"fmt"
	"strconv"
	"strings"

	"hypatia/internal/geom"
	"hypatia/internal/orbit"
	"hypatia/internal/tle"
)

// FromTLEConfig configures constellation construction from a TLE catalog.
type FromTLEConfig struct {
	Name       string
	MinElevDeg float64
	// ISLMode selects the interconnect. +Grid requires the catalog to be
	// ordered plane-major (all satellites of plane 0, then plane 1, ...)
	// with uniform plane sizes, which PlaneSize declares; ISLNone accepts
	// any catalog (bent-pipe connectivity only).
	ISLMode ISLMode
	// PlaneSize is the number of satellites per plane for ISLPlusGrid;
	// ignored for ISLNone.
	PlaneSize int
	// J2 enables secular J2 drift (recommended for real catalogs).
	J2 bool
	// EpochGMST is the sidereal angle at simulation t=0.
	EpochGMST float64
}

// FromTLEs builds a constellation from parsed two-line element sets — e.g.
// a NORAD catalog of satellites that actually exist, the input the ns-3
// mobility model Hypatia adapts consumes. Propagation uses this
// repository's Kepler+J2 model: exact two-body motion plus secular J2
// drift, which tracks real LEO objects to within a few kilometers over the
// sub-hour horizons the paper simulates (it omits SGP4's short-periodic
// and drag terms; see DESIGN.md).
//
// All TLEs are referenced to a common simulation epoch: each satellite's
// elements are taken as-is at t=0, so catalogs should share one epoch (as
// generated catalogs do; for downloaded catalogs the few-minute epoch
// spread translates into along-track offsets of the same size).
func FromTLEs(tles []tle.TLE, cfg FromTLEConfig) (*Constellation, error) {
	if len(tles) == 0 {
		return nil, fmt.Errorf("constellation: empty TLE catalog")
	}
	if cfg.MinElevDeg < 0 || cfg.MinElevDeg >= 90 {
		return nil, fmt.Errorf("constellation: min elevation %v out of range [0, 90)", cfg.MinElevDeg)
	}
	name := cfg.Name
	if name == "" {
		name = "TLE catalog"
	}

	planes := 1
	planeSize := len(tles)
	if cfg.ISLMode == ISLPlusGrid {
		if cfg.PlaneSize <= 0 || len(tles)%cfg.PlaneSize != 0 {
			return nil, fmt.Errorf("constellation: +Grid needs a plane size dividing %d satellites, got %d",
				len(tles), cfg.PlaneSize)
		}
		planeSize = cfg.PlaneSize
		planes = len(tles) / planeSize
	}

	// Synthesize a shell description for bookkeeping (altitude from the
	// first entry; Validate is skipped because real catalogs mix values).
	first := tles[0].Elements()
	shell := Shell{
		Name:         "TLE",
		AltitudeKm:   first.Altitude() / 1000,
		Orbits:       planes,
		SatsPerOrbit: planeSize,
		IncDeg:       tles[0].InclinationDeg,
	}

	c := &Constellation{
		Name:       name,
		Shells:     []Shell{shell},
		MinElev:    geom.Rad(cfg.MinElevDeg),
		epochGMST:  cfg.EpochGMST,
		Satellites: make([]Satellite, len(tles)),
		shellFirst: []int{0},
	}
	props := make([]orbit.KeplerPropagator, len(tles))
	// Unnamed entries are called "<name>-<satnum, five digits>"; their names
	// are cut from one builder.
	var names strings.Builder
	for i, t := range tles {
		el := t.Elements()
		if err := props[i].Init(el, cfg.J2); err != nil {
			return nil, fmt.Errorf("constellation: TLE %d (%s): %w", i, t.Name, err)
		}
		satName := t.Name
		if satName == "" {
			start := names.Len()
			names.WriteString(name)
			names.WriteByte('-')
			var num [20]byte
			names.Write(appendZeroPadded(num[:0], t.SatelliteNum, 5))
			satName = names.String()[start:]
		}
		c.Satellites[i] = Satellite{
			Index:      i,
			Name:       satName,
			ShellIndex: 0,
			Orbit:      i / planeSize,
			InOrbit:    i % planeSize,
			Propagator: &props[i],
			Elements:   el,
		}
	}
	if cfg.ISLMode == ISLPlusGrid {
		c.ISLs = plusGrid(c.Shells, c.shellFirst)
	}
	return c, nil
}

// appendZeroPadded appends v in decimal to dst, zero-padded to width bytes
// the way fmt's %0<width>d pads it: a minus sign counts toward the width and
// precedes the zeros.
func appendZeroPadded(dst []byte, v, width int) []byte {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(v), 10)
	if v < 0 {
		dst = append(dst, '-')
		digits = digits[1:]
		width--
	}
	for i := len(digits); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}
