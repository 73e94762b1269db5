package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/transport"
)

// miniConfig is a small constellation that still covers mid-latitudes.
func miniConfig() constellation.Config {
	return constellation.Config{
		Name: "Mini",
		Shells: []constellation.Shell{{
			Name: "M1", AltitudeKm: 630, Orbits: 16, SatsPerOrbit: 16,
			IncDeg: 53,
		}},
		MinElevDeg: 25,
	}
}

// fourCities returns a small, well-spread GS set from the main dataset.
func fourCities(t *testing.T) []groundstation.GS {
	t.Helper()
	all := groundstation.Top100Cities()
	var out []groundstation.GS
	for i, name := range []string{"Istanbul", "Nairobi", "Manila", "Rio de Janeiro"} {
		g := groundstation.MustByName(all, name)
		g.ID = i
		out = append(out, g)
	}
	return out
}

func TestNewRunDefaults(t *testing.T) {
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if r.Cfg.Duration != 200*sim.Second {
		t.Errorf("duration default = %v", r.Cfg.Duration)
	}
	if r.Cfg.UpdateInterval != 100*sim.Millisecond {
		t.Errorf("interval default = %v", r.Cfg.UpdateInterval)
	}
	if r.Cfg.Net.QueuePackets != 100 {
		t.Errorf("net default = %+v", r.Cfg.Net)
	}
	if r.UpdatesInstalled() != 1 {
		t.Errorf("updates installed before Execute = %d", r.UpdatesInstalled())
	}
}

func TestNewRunRejectsBadInputs(t *testing.T) {
	if _, err := NewRun(RunConfig{GroundStations: fourCities(t)}); err == nil {
		t.Error("empty constellation accepted")
	}
	if _, err := NewRun(RunConfig{Constellation: miniConfig()}); err == nil {
		t.Error("no ground stations accepted")
	}
	for name, mutate := range map[string]func(*RunConfig){
		"negative update interval":     func(c *RunConfig) { c.UpdateInterval = -sim.Millisecond },
		"negative duration":            func(c *RunConfig) { c.Duration = -sim.Second },
		"negative active destination":  func(c *RunConfig) { c.ActiveDstGS = []int{0, -1} },
		"active destination past end":  func(c *RunConfig) { c.ActiveDstGS = []int{0, 4} },
		"duplicate active destination": func(c *RunConfig) { c.ActiveDstGS = []int{1, 3, 1} },
	} {
		cfg := RunConfig{Constellation: miniConfig(), GroundStations: fourCities(t), Duration: sim.Second}
		mutate(&cfg)
		if r, err := NewRun(cfg); err == nil {
			r.Close()
			t.Errorf("%s accepted", name)
		}
	}
}

func TestForwardingUpdatesInstalledEveryInterval(t *testing.T) {
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       2 * sim.Second,
		UpdateInterval: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Execute()
	// t=0 plus 20 periodic updates (t = 0.1 .. 2.0).
	if got := r.UpdatesInstalled(); got != 21 {
		t.Errorf("updates installed = %d, want 21", got)
	}
}

// TestConcurrentRunsShareNothing executes four runs at once in one process,
// serial and sharded mixed. Each run owns its producer, engines and scratch;
// any state two runs reach in common (a package-level scratch, a shared
// pool buffer) is a data race for the race detector and a table mismatch for
// the hypatia_checks oracle.
func TestConcurrentRunsShareNothing(t *testing.T) {
	gs := fourCities(t)
	var wg sync.WaitGroup
	for i, shards := range []int{1, 2, 1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := NewRun(RunConfig{
				Constellation:  miniConfig(),
				GroundStations: gs,
				Duration:       5 * sim.Second,
				Shards:         shards,
			})
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			defer r.Close()
			r.Execute()
			// t=0 plus 50 periodic updates at the default 100 ms.
			if got := r.UpdatesInstalled(); got != 51 {
				t.Errorf("run %d (shards=%d): updates installed = %d, want 51", i, shards, got)
			}
		}()
	}
	wg.Wait()
}

// TestRunCloseStopsProducer checks the producer's lifecycle on the ways a
// run is abandoned: never executed, and stopped mid-run via Sim.Stop on the
// serial and on the sharded loop. Close must return, and leave no producer
// or shard goroutine behind.
func TestRunCloseStopsProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	stopMidRun := func(r *Run) {
		r.Sim.ScheduleAt(sim.Second, r.Sim.Stop)
		r.Execute()
		// Stopped at 1 s of 200: the serial loop halts on the spot, the
		// sharded one within a lookahead window (a few milliseconds).
		if got := r.UpdatesInstalled(); got != 11 {
			t.Fatalf("shards=%d: run was not stopped at 1 s: %d updates installed", r.Cfg.Shards, got)
		}
	}
	for _, tc := range []struct {
		name    string
		shards  int
		abandon func(*Run)
	}{
		{"never executed", 0, func(*Run) {}},
		{"stopped mid-run", 0, stopMidRun},
		{"stopped mid-run, sharded", 2, stopMidRun},
	} {
		// 200 s at 100 ms: far more instants than fit in flight, so the
		// producer cannot have finished on its own when Close is called.
		r, err := NewRun(RunConfig{Constellation: miniConfig(), GroundStations: fourCities(t), Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		tc.abandon(r)
		r.Close()
		r.Close() // idempotent
		// Close returns once the producer has signalled its exit; give the
		// runtime a moment to retire the goroutine itself.
		for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines after Close, %d before NewRun", tc.name, got, before)
		}
	}
}

func TestPingOverRun(t *testing.T) {
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       2 * sim.Second,
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := transport.NewPinger(r.Net, r.Flows, 0, 1, transport.PingConfig{Interval: 10 * sim.Millisecond})
	p.Start()
	r.Execute()
	replied := 0
	for _, res := range p.Results() {
		if res.Replied {
			replied++
		}
	}
	if replied < 150 {
		t.Errorf("only %d pings replied over 2 s", replied)
	}
	// Measured RTTs must match the snapshot computation within a couple of
	// milliseconds (the paper's ping-vs-computed validation).
	snap := r.Topo.Snapshot(1.0)
	want := snap.RTT(0, 1)
	if math.IsInf(want, 1) {
		t.Skip("pair disconnected in mini constellation")
	}
	var at1s float64
	for _, res := range p.Results() {
		if res.Replied && res.SentAt >= sim.Second {
			at1s = res.RTT.Seconds()
			break
		}
	}
	if math.Abs(at1s-want) > 0.005 {
		t.Errorf("ping RTT %v vs computed %v", at1s, want)
	}
}

func TestPartialForwardingTableMatchesFull(t *testing.T) {
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(5)
	full := snap.ForwardingTable()
	partial := snap.ForwardingTableFor([]int{1, 3})
	for node := 0; node < topo.NumNodes(); node++ {
		for _, gs := range []int{1, 3} {
			if full.NextHop(node, gs) != partial.NextHop(node, gs) {
				t.Fatalf("partial differs at node %d dst %d", node, gs)
			}
		}
		for _, gs := range []int{0, 2} {
			if partial.NextHop(node, gs) != -1 {
				t.Fatalf("inactive destination %d has entry at node %d", gs, node)
			}
		}
	}
}

func TestGSIndexByName(t *testing.T) {
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	idx, err := r.GSIndexByName("Manila")
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Errorf("Manila index = %d", idx)
	}
	if _, err := r.GSIndexByName("Atlantis"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTCPOverDynamicRun(t *testing.T) {
	// End-to-end: a TCP flow over a moving constellation with forwarding
	// updates must sustain throughput.
	r, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       10 * sim.Second,
		ActiveDstGS:    []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewTCPFlow(r.Net, r.Flows, 0, 1, transport.TCPConfig{})
	f.Start()
	r.Execute()
	if f.AckedSegments < 100 {
		t.Errorf("TCP moved only %d segments in 10 s", f.AckedSegments)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() (int64, uint64) {
		r, err := NewRun(RunConfig{
			Constellation:  miniConfig(),
			GroundStations: fourCities(t),
			Duration:       5 * sim.Second,
			ActiveDstGS:    []int{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		f := transport.NewTCPFlow(r.Net, r.Flows, 0, 1, transport.TCPConfig{})
		f.Start()
		r.Execute()
		return f.AckedSegments, r.Sim.Processed()
	}
	a1, e1 := run()
	a2, e2 := run()
	if a1 != a2 || e1 != e2 {
		t.Errorf("runs differ: acked %d vs %d, events %d vs %d", a1, a2, e1, e2)
	}
}

func TestCustomRoutingStrategyAvoidNodes(t *testing.T) {
	// Route around a "failed" satellite: the one on the default path.
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		Duration:       sim.Second,
		ActiveDstGS:    []int{0, 1},
	}
	base, err := NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(base.Close)
	path, _ := base.Topo.Snapshot(0).Path(0, 1)
	if path == nil || len(path) < 3 {
		t.Skip("pair disconnected in mini constellation")
	}
	failed := path[1] // first satellite on the default path

	cfg.Strategy = AvoidNodes(ShortestPath, failed)
	run, err := NewRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := transport.NewPinger(run.Net, run.Flows, 0, 1, transport.PingConfig{Interval: 100 * sim.Millisecond})
	p.Start()

	// Observe which nodes packets actually traverse.
	visited := map[int]bool{}
	run.Net.SetTransmitHook(func(ti sim.TransmitInfo) {
		visited[ti.From] = true
		visited[ti.To] = true
	})
	run.Execute()

	replied := 0
	for _, r := range p.Results() {
		if r.Replied {
			replied++
		}
	}
	if replied == 0 {
		t.Fatal("no pings survived rerouting around the failed satellite")
	}
	if visited[failed] {
		t.Errorf("traffic still traversed excluded satellite %d", failed)
	}
}

func TestAvoidNodesExcludedNeverOnPath(t *testing.T) {
	// An AvoidNodes table must never route any packet through an excluded
	// node: walk PathVia from every source toward every destination and
	// check each hop.
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(7)

	// Exclude the first two satellites on the 0->1 default path, if any.
	avoid := map[int]bool{}
	if path, _ := snap.Path(0, 1); len(path) >= 4 {
		avoid[path[1]] = true
		avoid[path[2]] = true
	} else {
		avoid[0] = true
		avoid[1] = true
	}
	var nodes []int
	for n := range avoid {
		nodes = append(nodes, n)
	}
	ft := AvoidNodes(ShortestPath, nodes...)(snap, nil)

	walked := 0
	for src := 0; src < topo.NumNodes(); src++ {
		for gs := 0; gs < topo.NumGS(); gs++ {
			path := ft.PathVia(topo, src, gs)
			if path == nil {
				continue
			}
			walked++
			// The source itself may be an excluded node (it still appears
			// as the walk's origin); no later hop may be excluded.
			for _, v := range path[1:] {
				if avoid[v] {
					t.Fatalf("path %d->gs%d traverses excluded node %d: %v", src, gs, v, path)
				}
			}
		}
	}
	if walked == 0 {
		t.Fatal("no reachable pairs left after exclusion; test exercised nothing")
	}
	// Excluded nodes themselves must have no outgoing next hops.
	for n := range avoid {
		for gs := 0; gs < topo.NumGS(); gs++ {
			if topo.GSNode(gs) != n && ft.NextHop(n, gs) != -1 {
				t.Errorf("excluded node %d has next hop toward gs %d", n, gs)
			}
		}
	}
}

func TestAvoidNodesAllExcludedUnreachable(t *testing.T) {
	// Excluding every node yields a table where nothing is reachable.
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(0)
	all := make([]int, topo.NumNodes())
	for i := range all {
		all[i] = i
	}
	ft := AvoidNodes(ShortestPath, all...)(snap, nil)
	for node := 0; node < topo.NumNodes(); node++ {
		for gs := 0; gs < topo.NumGS(); gs++ {
			if node == topo.GSNode(gs) {
				continue // a destination trivially "reaches" itself
			}
			if nh := ft.NextHop(node, gs); nh != -1 {
				t.Fatalf("all-excluded graph: node %d still has next hop %d toward gs %d", node, nh, gs)
			}
		}
	}
}

func TestWithoutNodesPreservesOtherPaths(t *testing.T) {
	cfg := RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
	}.withDefaults()
	c, _ := constellation.Generate(cfg.Constellation)
	topo, _ := routing.NewTopology(c, cfg.GroundStations, routing.GSLFree)
	snap := topo.Snapshot(0)
	pruned := snap.WithoutNodes(map[int]bool{0: true})
	if pruned.G.N() != snap.G.N() {
		t.Fatal("node count changed")
	}
	if len(pruned.G.Neighbors(0)) != 0 {
		t.Error("excluded node still has edges")
	}
	// Edge count drops by exactly node 0's degree.
	if snap.G.NumEdges()-pruned.G.NumEdges() != len(snap.G.Neighbors(0)) {
		t.Errorf("edges: %d -> %d, node degree %d",
			snap.G.NumEdges(), pruned.G.NumEdges(), len(snap.G.Neighbors(0)))
	}
}
