// Package groundstation provides the terrestrial endpoints of the simulated
// networks: a built-in dataset of the world's 100 most populous cities (the
// ground-station set used throughout the paper's experiments), lookup
// helpers, and generators for ground-station relay grids (the bent-pipe
// scenario of the paper's Appendix A).
//
// Hypatia's experiments model static ground stations with parabolic
// antennas rather than mobile user terminals; a ground station is therefore
// just a named geodetic location.
package groundstation

import (
	"fmt"
	"math"
	"sort"

	"hypatia/internal/geom"
)

// GS is a ground station: a fixed terrestrial endpoint with radio
// connectivity to visible satellites.
type GS struct {
	ID       int
	Name     string
	Position geom.LLA
	// Population of the metro area the station serves (0 for synthetic
	// relay stations); used only for dataset ordering and documentation.
	Population int
}

// ECEF returns the station's Earth-fixed Cartesian position.
func (g GS) ECEF() geom.Vec3 { return g.Position.ToECEF() }

// city is a dataset row.
type city struct {
	name       string
	latDeg     float64
	lonDeg     float64
	population int // approximate metro population
}

// top100 lists the world's 100 most populous metropolitan areas with
// approximate coordinates, ordered by population. The exact ranking varies
// by source and year; what matters for the experiments is the global
// geographic spread, which is the paper's reason for choosing this set.
var top100 = []city{
	{"Tokyo", 35.6895, 139.6917, 37400000},
	{"Delhi", 28.6139, 77.2090, 31000000},
	{"Shanghai", 31.2304, 121.4737, 27800000},
	{"Sao Paulo", -23.5505, -46.6333, 22400000},
	{"Mexico City", 19.4326, -99.1332, 21900000},
	{"Cairo", 30.0444, 31.2357, 21300000},
	{"Mumbai", 19.0760, 72.8777, 20700000},
	{"Beijing", 39.9042, 116.4074, 20500000},
	{"Dhaka", 23.8103, 90.4125, 21700000},
	{"Osaka", 34.6937, 135.5023, 19100000},
	{"New York", 40.7128, -74.0060, 18800000},
	{"Karachi", 24.8607, 67.0011, 16500000},
	{"Buenos Aires", -34.6037, -58.3816, 15300000},
	{"Chongqing", 29.5630, 106.5516, 16400000},
	{"Istanbul", 41.0082, 28.9784, 15600000},
	{"Kolkata", 22.5726, 88.3639, 14900000},
	{"Manila", 14.5995, 120.9842, 14200000},
	{"Lagos", 6.5244, 3.3792, 14900000},
	{"Rio de Janeiro", -22.9068, -43.1729, 13600000},
	{"Tianjin", 39.3434, 117.3616, 13900000},
	{"Kinshasa", -4.4419, 15.2663, 14300000},
	{"Guangzhou", 23.1291, 113.2644, 13600000},
	{"Los Angeles", 34.0522, -118.2437, 12400000},
	{"Moscow", 55.7558, 37.6173, 12600000},
	{"Shenzhen", 22.5431, 114.0579, 12600000},
	{"Lahore", 31.5497, 74.3436, 13100000},
	{"Bangalore", 12.9716, 77.5946, 12700000},
	{"Paris", 48.8566, 2.3522, 11100000},
	{"Bogota", 4.7110, -74.0721, 11000000},
	{"Jakarta", -6.2088, 106.8456, 10900000},
	{"Chennai", 13.0827, 80.2707, 11200000},
	{"Lima", -12.0464, -77.0428, 10800000},
	{"Bangkok", 13.7563, 100.5018, 10700000},
	{"Seoul", 37.5665, 126.9780, 9900000},
	{"Nagoya", 35.1815, 136.9066, 9500000},
	{"Hyderabad", 17.3850, 78.4867, 10200000},
	{"London", 51.5074, -0.1278, 9500000},
	{"Tehran", 35.6892, 51.3890, 9400000},
	{"Chicago", 41.8781, -87.6298, 8900000},
	{"Chengdu", 30.5728, 104.0668, 9300000},
	{"Nanjing", 32.0603, 118.7969, 9000000},
	{"Wuhan", 30.5928, 114.3055, 8900000},
	{"Ho Chi Minh City", 10.8231, 106.6297, 8900000},
	{"Luanda", -8.8390, 13.2894, 8600000},
	{"Ahmedabad", 23.0225, 72.5714, 8400000},
	{"Kuala Lumpur", 3.1390, 101.6869, 8200000},
	{"Xian", 34.3416, 108.9398, 8200000},
	{"Hong Kong", 22.3193, 114.1694, 7500000},
	{"Dongguan", 23.0207, 113.7518, 7600000},
	{"Hangzhou", 30.2741, 120.1551, 7800000},
	{"Foshan", 23.0215, 113.1214, 7400000},
	{"Shenyang", 41.8057, 123.4315, 7500000},
	{"Riyadh", 24.7136, 46.6753, 7300000},
	{"Baghdad", 33.3152, 44.3661, 7100000},
	{"Santiago", -33.4489, -70.6693, 6800000},
	{"Surat", 21.1702, 72.8311, 6900000},
	{"Madrid", 40.4168, -3.7038, 6700000},
	{"Suzhou", 31.2989, 120.5853, 6700000},
	{"Pune", 18.5204, 73.8567, 6800000},
	{"Harbin", 45.8038, 126.5349, 6400000},
	{"Houston", 29.7604, -95.3698, 6400000},
	{"Dallas", 32.7767, -96.7970, 6400000},
	{"Toronto", 43.6532, -79.3832, 6300000},
	{"Dar es Salaam", -6.7924, 39.2083, 6400000},
	{"Miami", 25.7617, -80.1918, 6200000},
	{"Belo Horizonte", -19.9167, -43.9345, 6100000},
	{"Singapore", 1.3521, 103.8198, 5900000},
	{"Philadelphia", 39.9526, -75.1652, 5700000},
	{"Atlanta", 33.7490, -84.3880, 5900000},
	{"Fukuoka", 33.5904, 130.4017, 5500000},
	{"Khartoum", 15.5007, 32.5599, 5800000},
	{"Barcelona", 41.3851, 2.1734, 5600000},
	{"Johannesburg", -26.2041, 28.0473, 5800000},
	{"Saint Petersburg", 59.9311, 30.3609, 5400000},
	{"Qingdao", 36.0671, 120.3826, 5600000},
	{"Dalian", 38.9140, 121.6147, 5300000},
	{"Washington", 38.9072, -77.0369, 5300000},
	{"Yangon", 16.8661, 96.1951, 5300000},
	{"Alexandria", 31.2001, 29.9187, 5300000},
	{"Jinan", 36.6512, 117.1201, 5200000},
	{"Guadalajara", 20.6597, -103.3496, 5200000},
	{"Ankara", 39.9334, 32.8597, 5100000},
	{"Zhengzhou", 34.7466, 113.6254, 5100000},
	{"Nairobi", -1.2921, 36.8219, 5000000},
	{"Chittagong", 22.3569, 91.7832, 5000000},
	{"Sydney", -33.8688, 151.2093, 4900000},
	{"Melbourne", -37.8136, 144.9631, 4900000},
	{"Monterrey", 25.6866, -100.3161, 4900000},
	{"Brasilia", -15.7942, -47.8822, 4800000},
	{"Recife", -8.0476, -34.8770, 4200000},
	{"Fortaleza", -3.7319, -38.5267, 4100000},
	{"Medellin", 6.2442, -75.5812, 4100000},
	{"Porto Alegre", -30.0346, -51.2177, 4300000},
	{"Casablanca", 33.5731, -7.5898, 3800000},
	{"Abidjan", 5.3600, -4.0083, 5200000},
	{"Kano", 12.0022, 8.5920, 4100000},
	{"Cape Town", -33.9249, 18.4241, 4700000},
	{"Accra", 5.6037, -0.1870, 4200000},
	{"Addis Ababa", 9.0300, 38.7400, 5000000},
	{"Jeddah", 21.4858, 39.1925, 4800000},
}

// Top100Cities returns ground stations for the world's 100 most populous
// cities, IDs assigned in population order starting at 0. This is the
// ground-station set of the paper's experiments.
func Top100Cities() []GS {
	out := make([]GS, len(top100))
	for i, c := range top100 {
		out[i] = GS{
			ID:         i,
			Name:       c.name,
			Position:   geom.LLADeg(c.latDeg, c.lonDeg, 0),
			Population: c.population,
		}
	}
	return out
}

// ByName returns the ground station with the given name from gss.
func ByName(gss []GS, name string) (GS, error) {
	i, err := IndexByName(gss, name)
	if err != nil {
		return GS{}, err
	}
	return gss[i], nil
}

// IndexByName returns the index in gss of the first station with the given
// name: the number a run's ActiveDstGS and flows use for it.
func IndexByName(gss []GS, name string) (int, error) {
	for i, g := range gss {
		if g.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("groundstation: no station named %q", name)
}

// MustByName is ByName for known-good names; it panics on a miss. Intended
// for experiment drivers referencing the built-in dataset.
func MustByName(gss []GS, name string) GS {
	g, err := ByName(gss, name)
	if err != nil {
		panic(err)
	}
	return g
}

// PairsWithin reports station index pairs (i < j) whose great-circle
// distance is below the given threshold in meters. The paper excludes pairs
// within 500 km from constellation-wide statistics.
func PairsWithin(gss []GS, d float64) [][2]int {
	var out [][2]int
	for i := 0; i < len(gss); i++ {
		for j := i + 1; j < len(gss); j++ {
			if geom.Haversine(gss[i].Position, gss[j].Position) < d {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// RelayGrid generates a rectangular grid of candidate ground-station relays
// covering the bounding box of endpoints a and b expanded by marginDeg
// degrees on every side, with the given number of rows (latitude) and
// columns (longitude). It reproduces Appendix A's bent-pipe scenario, where
// long-distance connectivity bounces between satellites and intermediate
// ground relays instead of using ISLs. IDs are assigned from firstID.
func RelayGrid(a, b geom.LLA, rows, cols int, marginDeg float64, firstID int) ([]GS, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("groundstation: relay grid needs at least 2x2, got %dx%d", rows, cols)
	}
	latLo := math.Min(geom.Deg(a.Lat), geom.Deg(b.Lat)) - marginDeg
	latHi := math.Max(geom.Deg(a.Lat), geom.Deg(b.Lat)) + marginDeg
	lonLo := math.Min(geom.Deg(a.Lon), geom.Deg(b.Lon)) - marginDeg
	lonHi := math.Max(geom.Deg(a.Lon), geom.Deg(b.Lon)) + marginDeg
	latLo = math.Max(latLo, -89)
	latHi = math.Min(latHi, 89)

	var out []GS
	for r := 0; r < rows; r++ {
		lat := latLo + (latHi-latLo)*float64(r)/float64(rows-1)
		for c := 0; c < cols; c++ {
			lon := lonLo + (lonHi-lonLo)*float64(c)/float64(cols-1)
			out = append(out, GS{
				ID:       firstID + len(out),
				Name:     fmt.Sprintf("relay-%d-%d", r, c),
				Position: geom.LLADeg(lat, lon, 0),
			})
		}
	}
	return out, nil
}

// SortByID orders stations by ID in place and returns the slice.
func SortByID(gss []GS) []GS {
	sort.Slice(gss, func(i, j int) bool { return gss[i].ID < gss[j].ID })
	return gss
}
