package constellation

import (
	"testing"

	"hypatia/internal/geom"
)

// BenchmarkPositionsECEF measures one instant's positions for all of Kuiper
// K1 (1 156 satellites), the first step of every forwarding-state instant:
// one PositionECI per satellite, rotated through the instant's sidereal
// angle. Successive ops step 100 ms apart, so the Kepler solve sees a
// fresh mean anomaly each time.
func BenchmarkPositionsECEF(b *testing.B) {
	c, err := Generate(Kuiper())
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]geom.Vec3, c.NumSatellites())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.PositionsECEF(float64(i%2000)*0.1, dst)
	}
}
