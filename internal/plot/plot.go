// Package plot renders simple, self-contained SVG charts — the stand-in
// for the gnuplot step of the original Hypatia's pipeline. It supports the
// two chart shapes the paper's figures use: time-series line charts
// (RTT/cwnd/throughput over time, Figs 3-5, 10, 18-19) and empirical CDFs
// (Figs 6-9). Charts are deterministic: the same data produces the same
// bytes.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name   string
	X, Y   []float64
	Color  string // CSS color; defaults applied per series index
	Dashed bool
}

// defaultColors cycles through distinguishable hues.
var defaultColors = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
}

// Options configures a chart.
type Options struct {
	Title         string
	XLabel        string
	YLabel        string
	Width, Height int // default 720 x 420
	// YMax optionally clips the y-axis (e.g. to keep one RTT spike from
	// flattening the rest of the series). 0 = auto.
	YMax float64
	// XMax optionally extends/clips the x-axis. 0 = auto.
	XMax float64
}

func (o Options) withDefaults() Options {
	if o.Width == 0 {
		o.Width = 720
	}
	if o.Height == 0 {
		o.Height = 420
	}
	return o
}

// chart carries layout state while rendering.
type chart struct {
	opt                    Options
	x0, y0, plotW, plotH   float64
	xMin, xMax, yMin, yMax float64
	b                      strings.Builder
}

// Lines renders a line chart of the given series.
func Lines(opt Options, series ...Series) (string, error) {
	opt = opt.withDefaults()
	if len(series) == 0 {
		return "", fmt.Errorf("plot: no series")
	}
	c := &chart{opt: opt}
	if err := c.computeBounds(series); err != nil {
		return "", err
	}
	c.begin()
	c.axes()
	for i, s := range series {
		color := s.Color
		if color == "" {
			color = defaultColors[i%len(defaultColors)]
		}
		c.polyline(s, color)
	}
	c.legend(series)
	c.end()
	return c.b.String(), nil
}

// CDF renders per-series empirical CDFs of the given samples (each series'
// Y values are ignored; X holds the sample).
func CDF(opt Options, series ...Series) (string, error) {
	converted := make([]Series, len(series))
	for i, s := range series {
		xs := append([]float64(nil), s.X...)
		if len(xs) == 0 {
			return "", fmt.Errorf("plot: empty CDF series %q", s.Name)
		}
		sortFloats(xs)
		ys := make([]float64, len(xs))
		for j := range xs {
			ys[j] = float64(j+1) / float64(len(xs))
		}
		converted[i] = Series{Name: s.Name, X: xs, Y: ys, Color: s.Color, Dashed: s.Dashed}
	}
	if opt.YLabel == "" {
		opt.YLabel = "ECDF"
	}
	opt.YMax = 1
	return Lines(opt, converted...)
}

func sortFloats(xs []float64) {
	// Insertion sort is plenty for chart-sized data and keeps the package
	// dependency-free beyond fmt/math/strings.
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

func (c *chart) computeBounds(series []Series) error {
	c.xMin, c.xMax = math.Inf(1), math.Inf(-1)
	c.yMin, c.yMax = 0, math.Inf(-1)
	points := 0
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			points++
			c.xMin = math.Min(c.xMin, x)
			c.xMax = math.Max(c.xMax, x)
			c.yMin = math.Min(c.yMin, y)
			c.yMax = math.Max(c.yMax, y)
		}
	}
	if points == 0 {
		return fmt.Errorf("plot: no finite points")
	}
	if c.opt.YMax > 0 {
		c.yMax = c.opt.YMax
	}
	if c.opt.XMax > 0 {
		c.xMax = c.opt.XMax
	}
	if c.xMax == c.xMin {
		c.xMax = c.xMin + 1
	}
	if c.yMax == c.yMin {
		c.yMax = c.yMin + 1
	}
	return nil
}

func (c *chart) begin() {
	w, h := c.opt.Width, c.opt.Height
	c.x0, c.y0 = 62, 28 // plot origin (top-left of plot area)
	c.plotW = float64(w) - c.x0 - 16
	c.plotH = float64(h) - c.y0 - 46
	fmt.Fprintf(&c.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&c.b, `<rect width="%d" height="%d" fill="#ffffff"/>`+"\n", w, h)
	if c.opt.Title != "" {
		fmt.Fprintf(&c.b, `<text x="%d" y="18" font-family="sans-serif" font-size="13" fill="#222">%s</text>`+"\n", w/2-len(c.opt.Title)*3, esc(c.opt.Title))
	}
}

// px/py map data coordinates to pixels.
func (c *chart) px(x float64) float64 { return c.x0 + (x-c.xMin)/(c.xMax-c.xMin)*c.plotW }
func (c *chart) py(y float64) float64 { return c.y0 + c.plotH - (y-c.yMin)/(c.yMax-c.yMin)*c.plotH }

func (c *chart) axes() {
	// Frame.
	fmt.Fprintf(&c.b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#444" stroke-width="1"/>`+"\n",
		c.x0, c.y0, c.plotW, c.plotH)
	// 5 ticks per axis.
	for i := 0; i <= 5; i++ {
		fx := c.xMin + (c.xMax-c.xMin)*float64(i)/5
		fy := c.yMin + (c.yMax-c.yMin)*float64(i)/5
		x := c.px(fx)
		y := c.py(fy)
		fmt.Fprintf(&c.b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n", x, c.y0, x, c.y0+c.plotH)
		fmt.Fprintf(&c.b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n", c.x0, y, c.x0+c.plotW, y)
		fmt.Fprintf(&c.b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" fill="#333" text-anchor="middle">%s</text>`+"\n",
			x, c.y0+c.plotH+14, tick(fx))
		fmt.Fprintf(&c.b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" fill="#333" text-anchor="end">%s</text>`+"\n",
			c.x0-5, y+3, tick(fy))
	}
	if c.opt.XLabel != "" {
		fmt.Fprintf(&c.b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" fill="#222" text-anchor="middle">%s</text>`+"\n",
			c.x0+c.plotW/2, c.y0+c.plotH+32, esc(c.opt.XLabel))
	}
	if c.opt.YLabel != "" {
		fmt.Fprintf(&c.b, `<text x="14" y="%.1f" font-family="sans-serif" font-size="11" fill="#222" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
			c.y0+c.plotH/2, c.y0+c.plotH/2, esc(c.opt.YLabel))
	}
}

// tick formats an axis value compactly.
func tick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	case av >= 10:
		return fmt.Sprintf("%.0f", v)
	case av >= 0.01 || av == 0:
		return fmt.Sprintf("%.2g", v)
	default:
		return fmt.Sprintf("%.1e", v)
	}
}

// polyline draws one series, breaking the line at non-finite points and
// clipping to the plot area.
func (c *chart) polyline(s Series, color string) {
	dash := ""
	if s.Dashed {
		dash = ` stroke-dasharray="6 4"`
	}
	var pts []string
	flush := func() {
		if len(pts) > 1 {
			fmt.Fprintf(&c.b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.4"%s/>`+"\n",
				strings.Join(pts, " "), color, dash)
		} else if len(pts) == 1 {
			fmt.Fprintf(&c.b, `<circle cx="%s" r="1.5" fill="%s"/>`+"\n",
				strings.Replace(pts[0], ",", `" cy="`, 1), color)
		}
		pts = pts[:0]
	}
	for i := range s.X {
		x, y := s.X[i], s.Y[i]
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			flush()
			continue
		}
		if y > c.yMax || x > c.xMax || x < c.xMin {
			flush()
			continue
		}
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", c.px(x), c.py(y)))
	}
	flush()
}

func (c *chart) legend(series []Series) {
	y := c.y0 + 14
	for i, s := range series {
		if s.Name == "" {
			continue
		}
		color := s.Color
		if color == "" {
			color = defaultColors[i%len(defaultColors)]
		}
		x := c.x0 + 10
		fmt.Fprintf(&c.b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`+"\n",
			x, y-4, x+18, y-4, color)
		fmt.Fprintf(&c.b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" fill="#222">%s</text>`+"\n",
			x+24, y, esc(s.Name))
		y += 14
	}
}

func (c *chart) end() { c.b.WriteString("</svg>\n") }

// esc escapes XML-special characters in labels.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
