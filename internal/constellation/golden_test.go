package constellation

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hypatia/internal/tle"
)

// constellationHash is an FNV-64a digest of everything construction
// produces: the name, minimum elevation and epoch sidereal angle, then per
// satellite its index, name, shell, orbit and slot and the bits of its epoch
// elements and of its ECI position at two times (which covers the
// propagator's derived rates), then every ISL in order.
func constellationHash(c *Constellation) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	h.Write([]byte(c.Name))
	putFloat(c.MinElev)
	putFloat(c.GMSTAt(0))
	putInt(len(c.Satellites))
	for i, s := range c.Satellites {
		putInt(s.Index)
		putInt(len(s.Name))
		h.Write([]byte(s.Name))
		putInt(s.ShellIndex)
		putInt(s.Orbit)
		putInt(s.InOrbit)
		e := s.Elements
		for _, v := range []float64{e.SemiMajorAxis, e.Eccentricity, e.Inclination, e.RAAN, e.ArgPerigee, e.MeanAnomaly} {
			putFloat(v)
		}
		for _, ts := range []float64{0, 1234.5} {
			p := c.PositionECI(i, ts)
			putFloat(p.X)
			putFloat(p.Y)
			putFloat(p.Z)
		}
	}
	putInt(len(c.ISLs))
	for _, l := range c.ISLs {
		putInt(l.A)
		putInt(l.B)
	}
	return h.Sum64()
}

// TestGenerateUnchanged pins construction bit for bit against digests
// recorded before Generate and FromTLEs cut their arrays from slabs: a
// change to how a fleet is allocated must not change a name, an element, a
// propagated position or an ISL. The FromTLEs cases rebuild a generated
// catalog with some names blanked, so the synthesized "<name>-<satnum>"
// names are pinned too.
func TestGenerateUnchanged(t *testing.T) {
	walker := Shell{Name: "W", AltitudeKm: 700, Orbits: 9, SatsPerOrbit: 11, IncDeg: 60, Phasing: PhaseWalker, WalkerF: 4}
	generated := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"K1", Kuiper(), 0x0611f7fb21ed3adf},
		{"S1", Starlink(), 0x4771b28cd9311c4e},
		{"S1-S5", Starlink(StarlinkS1, StarlinkS2, StarlinkS3, StarlinkS4, StarlinkS5), 0x448036718d63bd6f},
		{"K1-J2-epoch", Config{Name: "Kuiper", Shells: []Shell{KuiperK1}, MinElevDeg: 30, J2: true, EpochGMST: 0.7}, 0x6ca2ac2d7bbb4b7a},
		{"walker-geo-noisl", Config{Name: "Mixed", Shells: []Shell{walker, GEORing("G", 3)}, MinElevDeg: 10, ISLMode: ISLNone}, 0xf0640448e94cf3ac},
	}
	for _, tc := range generated {
		c, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := constellationHash(c); got != tc.want {
			t.Errorf("%s: digest %#016x, recorded %#016x", tc.name, got, tc.want)
		}
	}

	src, err := Generate(Kuiper())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := src.TLECatalog(2024, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tles, err := tle.ParseCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tles {
		if i%3 == 1 {
			tles[i].Name = ""
		}
	}
	fromTLE := []struct {
		name string
		cfg  FromTLEConfig
		want uint64
	}{
		{"tle-grid-j2", FromTLEConfig{Name: "Rebuilt", MinElevDeg: 30, ISLMode: ISLPlusGrid, PlaneSize: 34, J2: true}, 0x8cb66a2fa908af84},
		{"tle-none-unnamed", FromTLEConfig{MinElevDeg: 30, ISLMode: ISLNone}, 0xff659acfee474876},
	}
	for _, tc := range fromTLE {
		c, err := FromTLEs(tles, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := constellationHash(c); got != tc.want {
			t.Errorf("%s: digest %#016x, recorded %#016x", tc.name, got, tc.want)
		}
	}
}

// TestAppendZeroPaddedMatchesFmt holds FromTLEs' unnamed-entry numbering to
// the %05d it replaced, signs and overlong numbers included.
func TestAppendZeroPaddedMatchesFmt(t *testing.T) {
	for _, v := range []int{math.MinInt64, -123456, -1234, -12, -1, 0, 7, 42, 9999, 12345, 123456} {
		if got, want := string(appendZeroPadded(nil, v, 5)), fmt.Sprintf("%05d", v); got != want {
			t.Errorf("appendZeroPadded(%d) = %q, %%05d gives %q", v, got, want)
		}
	}
}
