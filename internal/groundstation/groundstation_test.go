package groundstation

import (
	"math"
	"testing"

	"hypatia/internal/geom"
)

func TestTop100HasExactly100(t *testing.T) {
	gss := Top100Cities()
	if len(gss) != 100 {
		t.Fatalf("got %d cities", len(gss))
	}
	for i, g := range gss {
		if g.ID != i {
			t.Errorf("%s: ID = %d, want %d", g.Name, g.ID, i)
		}
		if g.Population <= 0 {
			t.Errorf("%s: population %d", g.Name, g.Population)
		}
	}
}

func TestTop100CoordinatesInRange(t *testing.T) {
	for _, g := range Top100Cities() {
		lat, lon := geom.Deg(g.Position.Lat), geom.Deg(g.Position.Lon)
		if lat < -90 || lat > 90 {
			t.Errorf("%s: lat %v", g.Name, lat)
		}
		if lon < -180 || lon > 180 {
			t.Errorf("%s: lon %v", g.Name, lon)
		}
		if g.Position.Alt != 0 {
			t.Errorf("%s: alt %v", g.Name, g.Position.Alt)
		}
	}
}

func TestTop100NoDuplicateNames(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range Top100Cities() {
		if seen[g.Name] {
			t.Errorf("duplicate city %q", g.Name)
		}
		seen[g.Name] = true
	}
}

func TestPaperCitiesPresent(t *testing.T) {
	// Every city the paper's experiments name must be in the dataset.
	gss := Top100Cities()
	for _, name := range []string{
		"Rio de Janeiro", "Saint Petersburg", "Manila", "Dalian",
		"Istanbul", "Nairobi", "Paris", "Luanda", "Chicago",
		"Zhengzhou", "Moscow",
	} {
		if _, err := ByName(gss, name); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestByNameMiss(t *testing.T) {
	if _, err := ByName(Top100Cities(), "Atlantis"); err == nil {
		t.Error("missing city did not error")
	}
}

func TestIndexByName(t *testing.T) {
	gss := Top100Cities()
	i, err := IndexByName(gss, "Nairobi")
	if err != nil {
		t.Fatal(err)
	}
	if gss[i].Name != "Nairobi" {
		t.Errorf("IndexByName(Nairobi) = %d, which is %s", i, gss[i].Name)
	}
	if _, err := IndexByName(gss, "Atlantis"); err == nil {
		t.Error("missing city did not error")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic")
		}
	}()
	MustByName(Top100Cities(), "Atlantis")
}

func TestKnownCityCoordinates(t *testing.T) {
	gss := Top100Cities()
	cases := []struct {
		name     string
		lat, lon float64
	}{
		{"Rio de Janeiro", -22.9, -43.2},
		{"Saint Petersburg", 59.9, 30.4},
		{"Nairobi", -1.3, 36.8},
		{"Paris", 48.9, 2.4},
	}
	for _, c := range cases {
		g := MustByName(gss, c.name)
		if math.Abs(geom.Deg(g.Position.Lat)-c.lat) > 0.5 {
			t.Errorf("%s lat = %v", c.name, geom.Deg(g.Position.Lat))
		}
		if math.Abs(geom.Deg(g.Position.Lon)-c.lon) > 0.5 {
			t.Errorf("%s lon = %v", c.name, geom.Deg(g.Position.Lon))
		}
	}
}

func TestPairsWithin(t *testing.T) {
	gss := Top100Cities()
	close := PairsWithin(gss, 500e3)
	// There are known sub-500km pairs (e.g. Guangzhou/Shenzhen/Hong Kong/
	// Dongguan/Foshan cluster, Tokyo/Nagoya), so the list must be non-empty
	// and each listed pair must really be within range.
	if len(close) == 0 {
		t.Fatal("expected some pairs within 500 km")
	}
	for _, p := range close {
		d := geom.Haversine(gss[p[0]].Position, gss[p[1]].Position)
		if d >= 500e3 {
			t.Errorf("pair %v at %v km listed as close", p, d/1000)
		}
		if p[0] >= p[1] {
			t.Errorf("pair %v not ordered", p)
		}
	}
	// Sanity: the vast majority of pairs are farther apart.
	if len(close) > 200 {
		t.Errorf("%d close pairs seems too many", len(close))
	}
}

func TestECEFOnSurface(t *testing.T) {
	for _, g := range Top100Cities()[:10] {
		r := g.ECEF().Norm()
		if r < geom.EarthRadius*(1-geom.EarthFlattening)-1 || r > geom.EarthRadius+1 {
			t.Errorf("%s: ECEF radius %v", g.Name, r)
		}
	}
}

func TestRelayGrid(t *testing.T) {
	paris := geom.LLADeg(48.8566, 2.3522, 0)
	moscow := geom.LLADeg(55.7558, 37.6173, 0)
	grid, err := RelayGrid(paris, moscow, 4, 6, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 24 {
		t.Fatalf("grid size = %d", len(grid))
	}
	for i, g := range grid {
		if g.ID != 1000+i {
			t.Errorf("relay %d: ID = %d", i, g.ID)
		}
		lat, lon := geom.Deg(g.Position.Lat), geom.Deg(g.Position.Lon)
		if lat < 46.8 || lat > 57.8 {
			t.Errorf("relay %s: lat %v outside expanded box", g.Name, lat)
		}
		if lon < 0.3 || lon > 39.7 {
			t.Errorf("relay %s: lon %v outside expanded box", g.Name, lon)
		}
	}
	// Corners include the expanded endpoints.
	if geom.Deg(grid[0].Position.Lat) > geom.Deg(grid[len(grid)-1].Position.Lat) {
		t.Error("rows should go south to north")
	}
}

func TestRelayGridRejectsTiny(t *testing.T) {
	a := geom.LLADeg(0, 0, 0)
	if _, err := RelayGrid(a, a, 1, 5, 1, 0); err == nil {
		t.Error("1-row grid accepted")
	}
	if _, err := RelayGrid(a, a, 5, 1, 1, 0); err == nil {
		t.Error("1-col grid accepted")
	}
}

func TestSortByID(t *testing.T) {
	gss := []GS{{ID: 3}, {ID: 1}, {ID: 2}}
	SortByID(gss)
	for i, g := range gss {
		if g.ID != i+1 {
			t.Fatalf("order wrong: %+v", gss)
		}
	}
}
