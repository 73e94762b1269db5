package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// line builds a path graph 0-1-2-...-n-1 with unit weights.
func line(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Graph)
	}{
		{"out of range", func(g *Graph) { g.AddEdge(0, 5, 1) }},
		{"negative", func(g *Graph) { g.AddEdge(0, 1, -1) }},
		{"self loop", func(g *Graph) { g.AddEdge(1, 1, 1) }},
		{"nan", func(g *Graph) { g.AddEdge(0, 1, math.NaN()) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.f(New(3))
		})
	}
}

func TestDijkstraLine(t *testing.T) {
	g := line(5)
	dist, prev := g.Dijkstra(0, nil, nil)
	for i := 0; i < 5; i++ {
		if dist[i] != float64(i) {
			t.Errorf("dist[%d] = %v", i, dist[i])
		}
	}
	path := PathFromPrev(prev, 0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v", path)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	// 2, 3 disconnected.
	dist, prev := g.Dijkstra(0, nil, nil)
	if !math.IsInf(dist[2], 1) || !math.IsInf(dist[3], 1) {
		t.Errorf("disconnected distances: %v", dist)
	}
	if PathFromPrev(prev, 0, 3) != nil {
		t.Error("path to unreachable node should be nil")
	}
}

func TestDijkstraPicksShorterOfTwoRoutes(t *testing.T) {
	//      1
	//   0 --- 1
	//   |     |
	//  10     1
	//   |     |
	//   3 --- 2
	//      1
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)
	dist, prev := g.Dijkstra(0, nil, nil)
	if dist[3] != 3 {
		t.Errorf("dist[3] = %v, want 3 (via 1,2)", dist[3])
	}
	path := PathFromPrev(prev, 0, 3)
	if len(path) != 4 {
		t.Errorf("path = %v", path)
	}
}

func TestDijkstraDeterministicTieBreak(t *testing.T) {
	// Two equal-cost routes 0->1->3 and 0->2->3; repeated runs must return
	// the same path.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	_, prev1 := g.Dijkstra(0, nil, nil)
	first := PathFromPrev(prev1, 0, 3)
	for i := 0; i < 10; i++ {
		_, prev := g.Dijkstra(0, nil, nil)
		p := PathFromPrev(prev, 0, 3)
		for j := range p {
			if p[j] != first[j] {
				t.Fatalf("tie-break unstable: %v vs %v", p, first)
			}
		}
	}
}

func TestDijkstraReusesSlices(t *testing.T) {
	g := line(6)
	dist := make([]float64, 6)
	prev := make([]int32, 6)
	d2, p2 := g.Dijkstra(2, dist, prev)
	if &d2[0] != &dist[0] || &p2[0] != &prev[0] {
		t.Error("slices were reallocated despite sufficient capacity")
	}
	if d2[5] != 3 {
		t.Errorf("dist[5] = %v", d2[5])
	}
}

func TestFloydWarshallMatchesDijkstraRandom(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 20 + r.Intn(20)
		g := New(n)
		seen := map[[2]int]bool{}
		for e := 0; e < n*3; e++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			g.AddEdge(a, b, 1+r.Float64()*100)
		}
		ap := g.FloydWarshall()
		for src := 0; src < n; src += 3 {
			dist, _ := g.Dijkstra(src, nil, nil)
			for v := 0; v < n; v++ {
				fw := ap.Dist(src, v)
				if math.IsInf(dist[v], 1) != math.IsInf(fw, 1) {
					t.Fatalf("reachability disagrees at %d->%d", src, v)
				}
				if !math.IsInf(fw, 1) && math.Abs(fw-dist[v]) > 1e-6 {
					t.Fatalf("distance disagrees at %d->%d: FW %v vs Dijkstra %v", src, v, fw, dist[v])
				}
			}
		}
	}
}

func TestFloydWarshallPath(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)
	ap := g.FloydWarshall()
	path := ap.Path(0, 3)
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v", path)
		}
	}
	if ap.Path(3, 0) == nil {
		t.Error("reverse path missing")
	}
}

func TestFloydWarshallPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	ap := g.FloydWarshall()
	if ap.Path(0, 2) != nil {
		t.Error("unreachable path should be nil")
	}
	if !math.IsInf(ap.Dist(2, 0), 1) {
		t.Error("unreachable distance should be Inf")
	}
}

func TestFloydWarshallPathDistancesConsistentProperty(t *testing.T) {
	// The sum of edge weights along any reported path equals the reported
	// distance.
	r := rand.New(rand.NewSource(5))
	n := 30
	g := New(n)
	type key [2]int
	w := map[key]float64{}
	for e := 0; e < 90; e++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if _, dup := w[key{a, b}]; dup {
			continue
		}
		wt := 1 + r.Float64()*10
		w[key{a, b}] = wt
		g.AddEdge(a, b, wt)
	}
	ap := g.FloydWarshall()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			p := ap.Path(a, b)
			if p == nil {
				continue
			}
			sum := 0.0
			for i := 0; i+1 < len(p); i++ {
				x, y := p[i], p[i+1]
				if x > y {
					x, y = y, x
				}
				wt, ok := w[key{x, y}]
				if !ok {
					t.Fatalf("path %v uses nonexistent edge %d-%d", p, x, y)
				}
				sum += wt
			}
			if math.Abs(sum-ap.Dist(a, b)) > 1e-6 {
				t.Fatalf("path sum %v != dist %v for %d->%d (%v)", sum, ap.Dist(a, b), a, b, p)
			}
		}
	}
}

func TestNumEdgesAndNeighbors(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.N() != 3 {
		t.Errorf("N = %d", g.N())
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
}

func TestBucketQueueDecreaseKey(t *testing.T) {
	q := &bucketQueue{}
	q.reset(5, 1, 10)
	q.push(0, 10)
	q.push(1, 5)
	q.push(2, 7)
	q.push(0, 1) // decrease key of 0
	if got := q.pop(); got != 0 {
		t.Errorf("pop = %d, want 0 after decrease-key", got)
	}
	if got := q.pop(); got != 1 {
		t.Errorf("pop = %d, want 1", got)
	}
	// Increasing a key is ignored.
	q.push(2, 100)
	if got := q.pop(); got != 2 {
		t.Errorf("pop = %d, want 2", got)
	}
	if !q.empty() {
		t.Error("queue should be empty")
	}
}

// TestBucketQueueOrderingProperty drives the queue the way Dijkstra and the
// repair do — seeds at any key before the first pop, then pushes and
// decrease-keys no lower than the key popped last and at most the largest
// weight above it — against a reference that pops the least (key, id) by a
// linear scan. The weight regimes cover tied integer keys, a width capped
// far above the least weight (arrivals into the bucket being drained), zero
// weights, and seeds spread over many windows (the overflow).
func TestBucketQueueOrderingProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	regimes := []struct{ minW, maxW float64 }{{1, 20}, {1e-3, 1e3}, {0, 0}, {0.5, 2}}
	for trial := 0; trial < 200; trial++ {
		reg := regimes[trial%len(regimes)]
		n := 1 + r.Intn(80)
		q := &bucketQueue{}
		q.reset(n, reg.minW, reg.maxW)
		weight := func() float64 {
			if reg.maxW == 0 || r.Intn(8) == 0 {
				return 0
			}
			if reg.minW == 1 {
				return math.Floor(1 + r.Float64()*reg.maxW)
			}
			return reg.minW * math.Pow(reg.maxW/reg.minW, r.Float64())
		}
		queued := map[int32]float64{}
		push := func(v int32, k float64) {
			if old, ok := queued[v]; ok && k >= old {
				q.push(v, k) // ignored
				return
			}
			queued[v] = k
			q.push(v, k)
		}
		for v := range n {
			if r.Intn(3) == 0 {
				push(int32(v), math.Floor(r.Float64()*40)*(reg.maxW+1))
			}
		}
		last := 0.0
		for pops := 0; !q.empty(); pops++ {
			want := int32(-1)
			for v, k := range queued {
				if want < 0 || k < queued[want] || k == queued[want] && v < want {
					want = v
				}
			}
			if got := q.pop(); got != want {
				t.Fatalf("trial %d: pop %d (key %v), want %d (key %v)", trial, got, queued[got], want, queued[want])
			}
			last = queued[want]
			delete(queued, want)
			for i := r.Intn(4); i > 0 && pops < 3*n; i-- { // then drain it
				v := int32(r.Intn(n))
				push(v, last+weight())
			}
		}
		if len(queued) != 0 {
			t.Fatalf("trial %d: queue empty with %d nodes queued", trial, len(queued))
		}
		if c := cap(q.drain); c > n {
			t.Fatalf("trial %d: drain grew to %d entries over %d nodes", trial, c, n)
		}
	}
}

// TestResetReusesSlabs verifies that Reset yields an empty graph whose
// rebuilt form behaves identically to a fresh one, across shrink and grow.
func TestResetReusesSlabs(t *testing.T) {
	g := line(10)
	if g.NumEdges() != 9 {
		t.Fatalf("line(10) edges = %d", g.NumEdges())
	}
	for _, n := range []int{10, 4, 16} {
		g.Reset(n)
		if g.N() != n || g.NumEdges() != 0 {
			t.Fatalf("after Reset(%d): n=%d edges=%d", n, g.N(), g.NumEdges())
		}
		for v := 0; v < n; v++ {
			if len(g.Neighbors(v)) != 0 {
				t.Fatalf("Reset(%d): node %d kept %d edges", n, v, len(g.Neighbors(v)))
			}
		}
		// Rebuild a line and compare against a fresh graph.
		for i := 0; i < n-1; i++ {
			g.AddEdge(i, i+1, float64(i+1))
		}
		want := New(n)
		for i := 0; i < n-1; i++ {
			want.AddEdge(i, i+1, float64(i+1))
		}
		gd, gp := g.Dijkstra(0, nil, nil)
		wd, wp := want.Dijkstra(0, nil, nil)
		for v := 0; v < n; v++ {
			if gd[v] != wd[v] || gp[v] != wp[v] {
				t.Fatalf("Reset(%d) rebuild differs at node %d: (%v,%d) vs (%v,%d)",
					n, v, gd[v], gp[v], wd[v], wp[v])
			}
		}
	}
}

// TestResetAllocationFree verifies the steady-state promise: rebuilding the
// same shape after Reset performs no allocations.
func TestResetAllocationFree(t *testing.T) {
	g := line(64)
	allocs := testing.AllocsPerRun(100, func() {
		g.Reset(64)
		for i := 0; i < 63; i++ {
			g.AddEdge(i, i+1, 1)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset+rebuild allocated %v times per run", allocs)
	}
}

// TestDijkstraScratchIdentical runs randomized graphs through Dijkstra and
// DijkstraScratch with a dirty reused scratch, requiring identical output.
func TestDijkstraScratchIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var sc Scratch
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(60)
		g := New(n)
		for e := 0; e < n*2; e++ {
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				g.AddEdge(a, b, 1+math.Floor(r.Float64()*9))
			}
		}
		src := r.Intn(n)
		wd, wp := g.Dijkstra(src, nil, nil)
		gd, gp := g.DijkstraScratch(src, nil, nil, &sc)
		for v := 0; v < n; v++ {
			if gd[v] != wd[v] || gp[v] != wp[v] {
				t.Fatalf("trial %d: scratch Dijkstra differs at %d: (%v,%d) vs (%v,%d)",
					trial, v, gd[v], gp[v], wd[v], wp[v])
			}
		}
	}
}

// TestDijkstraScratchSteadyStateAllocs verifies a threaded scratch removes
// per-run heap allocations.
func TestDijkstraScratchSteadyStateAllocs(t *testing.T) {
	g := line(128)
	var sc Scratch
	dist, prev := g.DijkstraScratch(0, nil, nil, &sc)
	allocs := testing.AllocsPerRun(50, func() {
		dist, prev = g.DijkstraScratch(5, dist, prev, &sc)
	})
	if allocs != 0 {
		t.Errorf("scratch Dijkstra allocated %v times per run", allocs)
	}
}

// TestDijkstraSettleOrderProperty: on random graphs, many of them
// disconnected, the recorded Scratch.Order is the nodes sorted by (dist, id)
// with the unreached last by id — the order the repair carries — and dist
// equals Bellman–Ford's exactly. Every other graph has tie-heavy integer
// weights; the rest draw weights log-uniformly over six decades, so the
// queue's width is capped far above the least weight and nodes arrive in the
// bucket being drained. The queue holds a node at most once, so its drain
// never grows past n entries, and its bucket array stays O(n).
func TestDijkstraSettleOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var reused Scratch
	disconnected := 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(300)
		g := New(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				w := float64(1 + rng.Intn(3))
				if trial%2 == 1 {
					w = math.Pow(10, -3+6*rng.Float64())
				}
				g.AddEdge(a, b, w)
			}
		}
		src := rng.Intn(n)
		fresh := Scratch{Order: make([]int32, n)}
		dist, prev := g.DijkstraScratch(src, nil, nil, &fresh)
		if want := settleOrder(dist); !slices.Equal(fresh.Order, want) {
			t.Fatalf("trial %d: recorded order %v, (dist, id) order %v", trial, fresh.Order, want)
		}
		if c := cap(fresh.q.drain); c > n {
			t.Fatalf("trial %d: the queue's drain grew to %d entries over %d nodes", trial, c, n)
		}
		if b := len(fresh.q.head); b > 2*(n+3) {
			t.Fatalf("trial %d: %d buckets over %d nodes", trial, b, n)
		}
		bf, _ := g.BellmanFord(src)
		for v := range dist {
			if math.Float64bits(dist[v]) != math.Float64bits(bf[v]) {
				t.Fatalf("trial %d: dist[%d] = %v, Bellman-Ford %v", trial, v, dist[v], bf[v])
			}
		}
		if slices.Contains(prev, -1) {
			disconnected++
		}
		// A scratch carried across graphs of every size gives the same run.
		reused.Order = make([]int32, n)
		d2, p2 := g.DijkstraScratch(src, nil, nil, &reused)
		if !slices.Equal(d2, dist) || !slices.Equal(p2, prev) || !slices.Equal(reused.Order, fresh.Order) {
			t.Fatalf("trial %d: a reused scratch changed the run", trial)
		}
	}
	if disconnected < 40 {
		t.Fatalf("only %d of 400 graphs were disconnected; unreached nodes are not exercised", disconnected)
	}
}
