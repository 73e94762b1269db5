package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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

// TestNewRunRejectsBadInputs: every malformed config is an error, and none
// leaves a goroutine behind — NewRun starts the producer before it builds
// the network, so a Net config the network rejects must stop it again.
func TestNewRunRejectsBadInputs(t *testing.T) {
	before := runtime.NumGoroutine()
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
		"negative queue capacity":      func(c *RunConfig) { c.Net.QueuePackets = -1 },
		"negative ISL rate":            func(c *RunConfig) { c.Net.ISLRateBps = -1 },
		"negative GSL rate":            func(c *RunConfig) { c.Net.GSLRateBps = -1e6 },
		"negative hop limit":           func(c *RunConfig) { c.Net.MaxHops = -1 },
		"negative position quantum":    func(c *RunConfig) { c.Net.PosQuantum = -sim.Millisecond },
	} {
		cfg := RunConfig{Constellation: miniConfig(), GroundStations: fourCities(t), Duration: sim.Second}
		mutate(&cfg)
		if r, err := NewRun(cfg); err == nil {
			r.Close()
			t.Errorf("%s accepted", name)
		}
	}
	for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after the rejected configs, %d before", got, before)
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

// TestConcurrentRunsShareNothing executes four runs at once in one process.
// Each run owns its producer, engine and scratch; any state two runs reach
// in common (a package-level scratch, a shared pool buffer) is a data race
// for the race detector and a table mismatch for the hypatia_checks oracle.
func TestConcurrentRunsShareNothing(t *testing.T) {
	gs := fourCities(t)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := NewRun(RunConfig{
				Constellation:  miniConfig(),
				GroundStations: gs,
				Duration:       5 * sim.Second,
			})
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			defer r.Close()
			r.Execute()
			// t=0 plus 50 periodic updates at the default 100 ms.
			if got := r.UpdatesInstalled(); got != 51 {
				t.Errorf("run %d: updates installed = %d, want 51", i, got)
			}
		}()
	}
	wg.Wait()
}

// TestRunCloseStopsProducer checks the producer's lifecycle on the ways a
// run is abandoned: never executed, and stopped mid-run via Sim.Stop. Close
// must return, and leave no producer goroutine behind.
func TestRunCloseStopsProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	stopMidRun := func(r *Run) {
		r.Sim.ScheduleAt(sim.Second, r.Sim.Stop)
		r.Execute()
		// Stopped at 1 s of 200: the loop halts on the spot.
		if got := r.UpdatesInstalled(); got != 11 {
			t.Fatalf("run was not stopped at 1 s: %d updates installed", got)
		}
	}
	for _, tc := range []struct {
		name    string
		abandon func(*Run)
	}{
		{"never executed", func(*Run) {}},
		{"stopped mid-run", stopMidRun},
	} {
		// 200 s at 100 ms: far more instants than fit in flight, so the
		// producer cannot have finished on its own when Close is called.
		r, err := NewRun(RunConfig{Constellation: miniConfig(), GroundStations: fourCities(t)})
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

// TestCloseStopsWithinOneTree: a run abandoned mid-instant stops within one
// tree per split worker. The stop comes as it does from Close
// (pipeline.close calls Split.Stop), from a goroutine other than the
// split's, while a K1 instant toward all 100 cities is partly solved: after
// it, Work().Trees advances by at most Workers(), the Solve reports the
// instant incomplete, every later Solve does nothing, and Close leaves no
// helper. Then a K1 run closed right after NewRun, while its producer is in
// its second instant, leaves no goroutine and no incomplete table in flight.
func TestCloseStopsWithinOneTree(t *testing.T) {
	topo := benchKuiperTopo(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const stopInstant, stopAfter = 2, 37 // the stop lands after instant 2's 37th tree
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		var (
			instant int
			visited atomic.Int64 // trees visited in the instant
			atStop  int64        // visited right after the stop
			split   *routing.Split
		)
		stopAsked, stopDone := make(chan struct{}), make(chan struct{})
		split = routing.NewIncrementalEngine(topo, nil).NewSplit(nil, func(_, _ int, _ []float64, _ []int32) {
			if visited.Add(1) == stopAfter && instant == stopInstant {
				stopAsked <- struct{}{}
				<-stopDone // hold this worker's tree until the stop is in
			}
		})
		go func() { // the closer
			<-stopAsked
			split.Stop()
			atStop = visited.Load()
			close(stopDone)
		}()
		for instant = 0; instant <= stopInstant; instant++ {
			visited.Store(0)
			w0 := split.Work()
			done := split.Solve(0.1*float64(instant), 0.1*float64(instant+1))
			w := split.Work()
			if instant < stopInstant {
				if !done || w.Trees-w0.Trees != topo.NumGS() {
					t.Fatalf("GOMAXPROCS=%d instant %d: complete %v after %d trees", procs, instant, done, w.Trees-w0.Trees)
				}
				continue
			}
			if done {
				t.Errorf("GOMAXPROCS=%d: the stopped instant reports complete", procs)
			}
			if after := int64(w.Trees-w0.Trees) - atStop; after > int64(split.Workers()) {
				t.Errorf("GOMAXPROCS=%d: %d trees solved after the stop, want at most %d (one per worker)", procs, after, split.Workers())
			}
		}
		w := split.Work()
		if split.Solve(5, math.NaN()) {
			t.Errorf("GOMAXPROCS=%d: a Solve after the stop reports complete", procs)
		}
		if split.Work() != w {
			t.Errorf("GOMAXPROCS=%d: a Solve after the stop did work: %+v, then %+v", procs, w, split.Work())
		}
		split.Close()
		for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("GOMAXPROCS=%d: %d goroutines after Close, %d before the split", procs, got, before)
		}
	}

	before := runtime.NumGoroutine()
	r, err := NewRun(RunConfig{Constellation: constellation.Kuiper(), GroundStations: groundstation.Top100Cities(), Duration: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	for len(r.pipe.tables) > 0 { // the producer has exited: what it sent is all there
		if ft := <-r.pipe.tables; !ft.Equal(r.Topo.Snapshot(ft.T).ForwardingTable()) {
			t.Errorf("the closed run's producer sent an incomplete table for t=%v", ft.T)
		}
	}
	for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("closed K1 run: %d goroutines after Close, %d before NewRun", got, before)
	}
}

// TestStoppedProducerSendsNothing: a producer whose split was stopped
// before its first instant returns having sent nothing, and the table that
// instant drew goes back to the pool. The split is stopped before anything
// runs, so every run of the test takes the same path: a producer that sends
// its aborted table fails it every time, not only when a Close happens to
// land mid-instant (TestCloseStopsWithinOneTree's run half).
func TestStoppedProducerSendsNothing(t *testing.T) {
	c, err := constellation.Generate(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := routing.NewTopology(c, fourCities(t), routing.GSLFree)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ps := newProducerState(topo, nil)
	ps.split.Stop()
	if ft := ps.table(0, 0.1); ft != nil {
		t.Error("a stopped split's instant returned a table")
	}
	// The pool hands out the table returned last first.
	if again := ps.split.Table(0); again != ps.ft {
		t.Error("the aborted instant's table did not go back to the pool")
	} else {
		again.Release()
	}

	p := &pipeline{
		tables:  make(chan *routing.ForwardingTable, tablesInFlight-1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		split:   ps.split,
	}
	p.producer(topo, nil, nil, ps, []sim.Time{0, 100 * sim.Millisecond})
	select {
	case <-p.stopped:
	default:
		t.Error("the producer returned without signalling its exit")
	}
	if n := len(p.tables); n != 0 {
		t.Errorf("a stopped producer sent %d tables", n)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after the producer returned, %d before", got, before)
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
