// Package viz generates the visual artifacts Hypatia pairs with its
// simulator: CZML documents (the time-dynamic scene format of Cesium, the
// 3D mapping library the paper uses) for satellite trajectories and
// end-end paths, and self-contained SVG renderings — equirectangular
// trajectory maps (Fig 11), ground-observer sky views (Fig 12), path
// snapshots (Figs 13, 16, 17), and link-utilization maps (Figs 14, 15).
package viz

import (
	"encoding/json"
	"fmt"
	"math"

	"hypatia/internal/constellation"
	"hypatia/internal/geom"
)

// CZMLOptions controls CZML generation.
type CZMLOptions struct {
	Name string
	// Epoch is the ISO-8601 scene start; default "2020-01-01T00:00:00Z".
	Epoch string
	// Duration and Step are the sampled trajectory window, seconds.
	// Defaults: 5700 s (about one orbital period) sampled every 60 s.
	Duration float64
	Step     float64
	// PixelSize of satellite points; default 3 (as in public Starlink
	// visualizations on Cesium).
	PixelSize int
}

func (o CZMLOptions) withDefaults() CZMLOptions {
	if o.Epoch == "" {
		o.Epoch = "2020-01-01T00:00:00Z"
	}
	if o.Duration == 0 {
		o.Duration = 5700
	}
	if o.Step == 0 {
		o.Step = 60
	}
	if o.PixelSize == 0 {
		o.PixelSize = 3
	}
	return o
}

// czmlPacket is one element of a CZML document array.
type czmlPacket struct {
	ID      string        `json:"id"`
	Name    string        `json:"name,omitempty"`
	Version string        `json:"version,omitempty"`
	Clock   *czmlClock    `json:"clock,omitempty"`
	Pos     *czmlPosition `json:"position,omitempty"`
	Point   *czmlPoint    `json:"point,omitempty"`
	Line    *czmlPolyline `json:"polyline,omitempty"`
}

type czmlClock struct {
	Interval    string  `json:"interval"`
	CurrentTime string  `json:"currentTime"`
	Multiplier  float64 `json:"multiplier"`
}

type czmlPosition struct {
	Epoch     string    `json:"epoch,omitempty"`
	Cartesian []float64 `json:"cartesian"`
	// InterpolationDegree smooths motion between samples.
	InterpolationAlgorithm string `json:"interpolationAlgorithm,omitempty"`
	InterpolationDegree    int    `json:"interpolationDegree,omitempty"`
}

type czmlPoint struct {
	PixelSize int       `json:"pixelSize"`
	Color     czmlColor `json:"color"`
}

type czmlColor struct {
	RGBA [4]int `json:"rgba"`
}

type czmlPolyline struct {
	Positions czmlLinePositions `json:"positions"`
	Width     float64           `json:"width"`
	Material  czmlMaterial      `json:"material"`
}

type czmlLinePositions struct {
	Cartesian []float64 `json:"cartesian"`
}

type czmlMaterial struct {
	SolidColor struct {
		Color czmlColor `json:"color"`
	} `json:"solidColor"`
}

// stepCount is the number of samples 0, step, 2·step, ... that fit in
// [0, duration]. The tolerance keeps a quotient that is a whole number on
// paper (0.7/0.1) from truncating one short of it in floating point.
func stepCount(duration, step float64) int {
	return int(math.Floor(duration/step+1e-9)) + 1
}

// ConstellationCZML renders the satellite trajectories of a constellation
// as a CZML document loadable in any Cesium viewer. Positions are sampled
// in the inertial frame and emitted as time-tagged ECEF cartesians.
func ConstellationCZML(c *constellation.Constellation, opt CZMLOptions) ([]byte, error) {
	opt = opt.withDefaults()
	if opt.Step <= 0 || opt.Duration <= 0 {
		return nil, fmt.Errorf("viz: non-positive CZML duration or step")
	}
	name := opt.Name
	if name == "" {
		name = c.Name
	}
	doc := []czmlPacket{{
		ID:      "document",
		Name:    name,
		Version: "1.0",
		Clock: &czmlClock{
			Interval:    fmt.Sprintf("%s/%s", opt.Epoch, opt.Epoch),
			CurrentTime: opt.Epoch,
			Multiplier:  10,
		},
	}}
	steps := stepCount(opt.Duration, opt.Step)
	for i := range c.Satellites {
		cart := make([]float64, 0, steps*4)
		for k := 0; k < steps; k++ {
			t := float64(k) * opt.Step
			p := c.PositionECEF(i, t)
			cart = append(cart, t, p.X, p.Y, p.Z)
		}
		doc = append(doc, czmlPacket{
			ID: c.Satellites[i].Name,
			Pos: &czmlPosition{
				Epoch:                  opt.Epoch,
				Cartesian:              cart,
				InterpolationAlgorithm: "LAGRANGE",
				InterpolationDegree:    5,
			},
			Point: &czmlPoint{
				PixelSize: opt.PixelSize,
				Color:     czmlColor{RGBA: [4]int{0, 0, 0, 255}},
			},
		})
	}
	return json.MarshalIndent(doc, "", " ")
}

// PathCZML renders a static end-end path (node ECEF positions at one
// instant) as a CZML polyline document.
func PathCZML(name string, positions []geom.Vec3) ([]byte, error) {
	if len(positions) < 2 {
		return nil, fmt.Errorf("viz: path needs at least 2 positions")
	}
	cart := make([]float64, 0, len(positions)*3)
	for _, p := range positions {
		cart = append(cart, p.X, p.Y, p.Z)
	}
	line := &czmlPolyline{Width: 2}
	line.Positions.Cartesian = cart
	line.Material.SolidColor.Color = czmlColor{RGBA: [4]int{0, 128, 255, 255}}
	doc := []czmlPacket{
		{ID: "document", Name: name, Version: "1.0"},
		{ID: name + "-path", Line: line},
	}
	return json.MarshalIndent(doc, "", " ")
}
