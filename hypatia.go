// Package hypatia is a framework for simulating and visualizing the network
// behavior of low-Earth-orbit (LEO) satellite mega-constellations, a Go
// reimplementation of the system described in "Exploring the 'Internet from
// space' with Hypatia" (Kassing, Bhattacherjee, et al., ACM IMC 2020).
//
// The framework generates constellations from the orbital parameters in
// operator regulatory filings (Starlink, Kuiper, and Telesat ship as
// presets), connects them with "+Grid" laser inter-satellite links, attaches
// ground stations (the world's 100 most populous cities are built in),
// computes time-varying forwarding state at a configurable granularity, and
// runs packet-level simulations with TCP (NewReno and Vegas), UDP, and ping
// traffic whose per-packet propagation delays follow the satellites' orbital
// motion. A snapshot-analysis mode reproduces the paper's constellation-wide
// RTT and path-churn studies without packets, and a visualization module
// emits Cesium CZML and SVG renderings.
//
// Quick start:
//
//	run, err := hypatia.NewRun(hypatia.RunConfig{
//		Constellation:  hypatia.Kuiper(),
//		GroundStations: hypatia.Top100Cities(),
//		Duration:       hypatia.Seconds(200),
//	})
//	if err != nil { ... }
//	src, _ := run.GSIndexByName("Rio de Janeiro")
//	dst, _ := run.GSIndexByName("Saint Petersburg")
//	ping := hypatia.NewPinger(run.Net, run.Flows, src, dst, hypatia.PingConfig{})
//	ping.Start()
//	run.Execute()
//	// ping.Results() now holds 200k RTT measurements over the moving
//	// constellation.
//
// This root package is a facade: it re-exports the supported API surface of
// the internal packages. See DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-reproduction index.
package hypatia

import (
	"io"

	"hypatia/internal/analysis"
	"hypatia/internal/constellation"
	"hypatia/internal/core"
	"hypatia/internal/geom"
	"hypatia/internal/groundstation"
	"hypatia/internal/orbit"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/tle"
	"hypatia/internal/trace"
	"hypatia/internal/transport"
	"hypatia/internal/viz"
)

// Geometry and orbital mechanics.
type (
	// Vec3 is a Cartesian vector in meters.
	Vec3 = geom.Vec3
	// LLA is a geodetic position (latitude/longitude in radians, altitude
	// in meters).
	LLA = geom.LLA
	// OrbitalElements is a classical Keplerian element set.
	OrbitalElements = orbit.Elements
	// TLE is a two-line element set.
	TLE = tle.TLE
)

// Constellation construction.
type (
	// Shell is one orbital shell (altitude, planes, phasing).
	Shell = constellation.Shell
	// ConstellationConfig describes a constellation to generate.
	ConstellationConfig = constellation.Config
	// Constellation is a generated satellite fleet with its ISL topology.
	Constellation = constellation.Constellation
	// GS is a ground station.
	GS = groundstation.GS
)

// The paper's Table 1 shells.
var (
	StarlinkS1 = constellation.StarlinkS1
	StarlinkS2 = constellation.StarlinkS2
	StarlinkS3 = constellation.StarlinkS3
	StarlinkS4 = constellation.StarlinkS4
	StarlinkS5 = constellation.StarlinkS5
	KuiperK1   = constellation.KuiperK1
	KuiperK2   = constellation.KuiperK2
	KuiperK3   = constellation.KuiperK3
	TelesatT1  = constellation.TelesatT1
	TelesatT2  = constellation.TelesatT2
)

// ISL interconnect modes.
const (
	ISLPlusGrid = constellation.ISLPlusGrid
	ISLNone     = constellation.ISLNone
)

// GEORing returns a ring of equally spaced geostationary satellites (the
// legacy-constellation regime the paper contrasts with LEO).
func GEORing(name string, n int) Shell { return constellation.GEORing(name, n) }

// Starlink returns the Starlink configuration (shell S1 by default).
func Starlink(shells ...Shell) ConstellationConfig { return constellation.Starlink(shells...) }

// Kuiper returns the Kuiper configuration (shell K1 by default).
func Kuiper(shells ...Shell) ConstellationConfig { return constellation.Kuiper(shells...) }

// Telesat returns the Telesat configuration (shell T1 by default).
func Telesat(shells ...Shell) ConstellationConfig { return constellation.Telesat(shells...) }

// GenerateConstellation builds the satellite fleet for a configuration.
func GenerateConstellation(cfg ConstellationConfig) (*Constellation, error) {
	return constellation.Generate(cfg)
}

// FromTLEConfig configures constellation construction from a TLE catalog.
type FromTLEConfig = constellation.FromTLEConfig

// ConstellationFromTLEs builds a constellation from parsed two-line element
// sets (e.g. a downloaded NORAD catalog of real satellites).
func ConstellationFromTLEs(tles []TLE, cfg FromTLEConfig) (*Constellation, error) {
	return constellation.FromTLEs(tles, cfg)
}

// Top100Cities returns the built-in ground-station dataset used throughout
// the paper's experiments.
func Top100Cities() []GS { return groundstation.Top100Cities() }

// GSByName finds a ground station by name in a dataset.
func GSByName(gss []GS, name string) (GS, error) { return groundstation.ByName(gss, name) }

// GSIndexByName resolves a station name to its index in a dataset, the
// number RunConfig.ActiveDstGS and the flow constructors take. Unlike
// Run.GSIndexByName it needs no run, so a run's active destinations can be
// named before NewRun captures them.
func GSIndexByName(gss []GS, name string) (int, error) { return groundstation.IndexByName(gss, name) }

// RelayGrid generates a grid of candidate bent-pipe ground relays covering
// the bounding box of two endpoints (Appendix A of the paper).
func RelayGrid(a, b LLA, rows, cols int, marginDeg float64, firstID int) ([]GS, error) {
	return groundstation.RelayGrid(a, b, rows, cols, marginDeg, firstID)
}

// LLADeg builds a geodetic position from degrees and meters.
func LLADeg(latDeg, lonDeg, altM float64) LLA { return geom.LLADeg(latDeg, lonDeg, altM) }

// Routing and topology.
type (
	// Topology binds a constellation to ground stations.
	Topology = routing.Topology
	// TopologySnapshot is the network graph at one instant.
	TopologySnapshot = routing.Snapshot
	// ForwardingTable is the network-wide routing state at one instant.
	ForwardingTable = routing.ForwardingTable
	// GSLPolicy selects ground-station attachment behavior.
	GSLPolicy = routing.GSLPolicy
)

// GSL attachment policies.
const (
	GSLFree        = routing.GSLFree
	GSLNearestOnly = routing.GSLNearestOnly
)

// NewTopology binds a constellation to ground stations.
func NewTopology(c *Constellation, gss []GS, policy GSLPolicy) (*Topology, error) {
	return routing.NewTopology(c, gss, policy)
}

// Simulation time and network configuration.
type (
	// Time is simulation time in nanoseconds.
	Time = sim.Time
	// NetworkConfig sets link rates and queue sizes.
	NetworkConfig = sim.Config
	// Network is the packet-forwarding fabric.
	Network = sim.Network
	// Packet is a simulated packet. It lives inside the event record of its
	// next hop, which the network reuses once the packet is delivered or
	// dropped: a *Packet handed to a flow handler or to a transmit, drop or
	// deliver hook (Network.RegisterFlow, Set*Hook) is valid only until that
	// callback returns — copy the value to keep it. SrcGS and DstGS are
	// int32 station indices.
	Packet = sim.Packet
)

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Seconds converts float64 seconds to simulation Time.
func Seconds(s float64) Time { return sim.Seconds(s) }

// DefaultNetworkConfig returns the paper's default link and queue settings
// (10 Mbit/s uniform rates, 100-packet queues).
func DefaultNetworkConfig() NetworkConfig { return sim.DefaultConfig() }

// Orchestration.
type (
	// RunConfig describes a packet-level simulation run.
	RunConfig = core.RunConfig
	// Run is a wired simulation ready for transports.
	Run = core.Run
)

// NewRun builds a simulation run: constellation, topology, network, and
// scheduled forwarding-state updates.
func NewRun(cfg RunConfig) (*Run, error) { return core.NewRun(cfg) }

// RoutingStrategy computes forwarding state from a snapshot toward the
// active destination ground stations (nil = all); plug one into
// RunConfig.Strategy to replace shortest-path routing.
type RoutingStrategy = core.Strategy

// ShortestPath is the default routing strategy.
func ShortestPath(s *TopologySnapshot, active []int) *ForwardingTable {
	return core.ShortestPath(s, active)
}

// AvoidNodes wraps a strategy to exclude the given nodes from all paths
// (failed satellites, maintenance windows).
func AvoidNodes(inner RoutingStrategy, nodes ...int) RoutingStrategy {
	return core.AvoidNodes(inner, nodes...)
}

// Transports.
type (
	// TCPConfig parameterizes a TCP flow.
	TCPConfig = transport.TCPConfig
	// TCPFlow is a TCP connection between two ground stations.
	TCPFlow = transport.TCPFlow
	// UDPConfig parameterizes a constant-bit-rate UDP flow.
	UDPConfig = transport.UDPConfig
	// UDPFlow is a paced UDP sender with a counting sink.
	UDPFlow = transport.UDPFlow
	// PingConfig parameterizes a ping stream.
	PingConfig = transport.PingConfig
	// Pinger is a periodic echo measurement stream.
	Pinger = transport.Pinger
	// FlowIDs hands out unique flow identifiers.
	FlowIDs = transport.FlowIDs
	// CCAlgorithm selects TCP congestion control.
	CCAlgorithm = transport.CCAlgorithm
)

// Congestion-control algorithms.
const (
	NewReno = transport.NewReno
	Vegas   = transport.Vegas
	BBR     = transport.BBR
)

// NewTCPFlow creates a TCP flow between two ground stations.
func NewTCPFlow(n *Network, ids *FlowIDs, srcGS, dstGS int, cfg TCPConfig) *TCPFlow {
	return transport.NewTCPFlow(n, ids, srcGS, dstGS, cfg)
}

// NewUDPFlow creates a paced UDP flow between two ground stations.
func NewUDPFlow(n *Network, ids *FlowIDs, srcGS, dstGS int, cfg UDPConfig) *UDPFlow {
	return transport.NewUDPFlow(n, ids, srcGS, dstGS, cfg)
}

// NewPinger creates a ping measurement stream between two ground stations.
func NewPinger(n *Network, ids *FlowIDs, srcGS, dstGS int, cfg PingConfig) *Pinger {
	return transport.NewPinger(n, ids, srcGS, dstGS, cfg)
}

// Analysis.
type (
	// AnalysisConfig controls snapshot-based pair analysis. Its Workers
	// field is deprecated and ignored: the sweep solves each step's trees
	// on GOMAXPROCS workers.
	AnalysisConfig = analysis.Config
	// PairStats aggregates a pair's RTT and path behavior over time.
	PairStats = analysis.PairStats
	// ECDF is an empirical distribution over a sample.
	ECDF = analysis.ECDF
)

// AnalyzePairs steps a topology through time and aggregates per-pair RTT
// and path-churn statistics (the paper's Figs 6-8 pipeline).
func AnalyzePairs(topo *Topology, cfg AnalysisConfig) ([]PairStats, error) {
	return analysis.AnalyzePairs(topo, cfg)
}

// CoverageStats summarizes a location's connectivity over a scan window.
type CoverageStats = analysis.CoverageStats

// Coverage scans how many satellites each ground station can connect to
// over time, reporting covered fractions and outage windows (the
// quantitative form of the paper's Fig 12 ground-observer view).
func Coverage(c *Constellation, gss []GS, duration, step float64) ([]CoverageStats, error) {
	return analysis.Coverage(c, gss, duration, step)
}

// ISLDynamics describes one inter-satellite link's instantaneous length,
// range rate, and Doppler factor.
type ISLDynamics = analysis.ISLDynamics

// ISLDynamicsAt computes the kinematics of every ISL at time t (inputs for
// the Doppler modeling the paper lists as future work).
func ISLDynamicsAt(c *Constellation, t float64) []ISLDynamics {
	return analysis.ISLDynamicsAt(c, t)
}

// ReorderingStats quantifies receiver-observed packet reordering.
type ReorderingStats = transport.ReorderingStats

// AnalyzeReordering computes reordering statistics from an arrival-order
// log (e.g. TCPFlow.ArrivalLog with TCPConfig.RecordLogs set).
func AnalyzeReordering(arrivals []int64) ReorderingStats {
	return transport.AnalyzeReordering(arrivals)
}

// NewECDF builds an empirical CDF from a sample.
func NewECDF(vals []float64) *ECDF { return analysis.NewECDF(vals) }

// Visualization.
type (
	// CZMLOptions controls Cesium CZML generation.
	CZMLOptions = viz.CZMLOptions
	// TrajectoryMapOptions controls the trajectory SVG rendering.
	TrajectoryMapOptions = viz.TrajectoryMapOptions
	// SkyViewOptions controls the ground-observer SVG rendering.
	SkyViewOptions = viz.SkyViewOptions
	// LinkLoad is a per-link utilization sample for rendering.
	LinkLoad = viz.LinkLoad
)

// ConstellationCZML renders satellite trajectories as a Cesium CZML
// document.
func ConstellationCZML(c *Constellation, opt CZMLOptions) ([]byte, error) {
	return viz.ConstellationCZML(c, opt)
}

// TrajectoryMapSVG renders a constellation snapshot on a world map.
func TrajectoryMapSVG(c *Constellation, opt TrajectoryMapOptions) string {
	return viz.TrajectoryMapSVG(c, opt)
}

// GroundObserverSVG renders the sky as seen from a ground location,
// returning the SVG and the number of connectable satellites.
func GroundObserverSVG(c *Constellation, obs LLA, opt SkyViewOptions) (string, int) {
	return viz.GroundObserverSVG(c, obs, opt)
}

// PathMapSVG renders an end-end path snapshot on a world map.
func PathMapSVG(topo *Topology, path []int, t float64, width, height int) string {
	return viz.PathMapSVG(topo, path, t, width, height)
}

// TLEs and tracing.

// ParseTLE parses a two- or three-line element set.
func ParseTLE(text string) (TLE, error) { return tle.Parse(text) }

// ParseTLECatalog parses a concatenation of TLE entries.
func ParseTLECatalog(text string) ([]TLE, error) { return tle.ParseCatalog(text) }

// TLEFromElements generates a WGS72 TLE from Keplerian elements — the
// paper's utility for describing not-yet-launched satellites.
func TLEFromElements(name string, satNum, epochYear int, epochDay float64, e OrbitalElements) (TLE, error) {
	return tle.FromElements(name, satNum, epochYear, epochDay, e)
}

// Tracer writes per-packet TX/RX/DROP event traces (see internal/trace for
// filters).
type Tracer = trace.Tracer

// NewTracer creates a packet tracer writing to w; attach it to a run's
// network with Tracer.Attach.
func NewTracer(w io.Writer) *Tracer { return trace.New(w, nil) }
