package graph

import (
	"math"
	"sort"
)

// WeightedPath is a path with its total weight.
type WeightedPath struct {
	Nodes  []int
	Weight float64
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// increasing weight order, using Yen's algorithm over the package's
// deterministic Dijkstra. It underpins multi-path routing studies — one of
// the extensions the Hypatia paper lists as future work: with several
// near-equal paths available, traffic can be split or shifted a priori away
// from links about to become bottlenecks (§5.4).
//
// The graph is treated as immutable; edge removals during the search are
// tracked in an overlay, so the method is safe to call concurrently with
// other readers.
func (g *Graph) KShortestPaths(src, dst, k int) []WeightedPath {
	if k <= 0 {
		return nil
	}
	dist, prev := g.Dijkstra(src, nil, nil)
	first := PathFromPrev(prev, src, dst)
	if first == nil {
		return nil
	}
	paths := []WeightedPath{{Nodes: first, Weight: dist[dst]}}

	var candidates []yenCandidate

	for len(paths) < k {
		last := paths[len(paths)-1]
		// Each node of the previous path (except the final one) becomes a
		// spur node.
		for i := 0; i < len(last.Nodes)-1; i++ {
			spur := last.Nodes[i]
			rootNodes := last.Nodes[:i+1]

			// Edges to exclude: the next edge of every accepted path that
			// shares the current root.
			banned := map[[2]int]bool{}
			for _, p := range paths {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, rootNodes) && len(p.Nodes) > i+1 {
					banned[[2]int{p.Nodes[i], p.Nodes[i+1]}] = true
					banned[[2]int{p.Nodes[i+1], p.Nodes[i]}] = true
				}
			}
			// Nodes of the root (except the spur) are excluded to keep
			// paths loopless.
			excluded := map[int]bool{}
			for _, v := range rootNodes[:i] {
				excluded[v] = true
			}

			spurDist, spurPrev := g.dijkstraFiltered(spur, banned, excluded)
			if math.IsInf(spurDist[dst], 1) {
				continue
			}
			spurPath := PathFromPrev(spurPrev, spur, dst)
			total := append(append([]int{}, rootNodes[:i]...), spurPath...)
			weight := g.pathWeight(total)
			if math.IsInf(weight, 1) {
				continue
			}
			if containsPath(paths, total) || containsCandidate(candidates, total) {
				continue
			}
			candidates = append(candidates, yenCandidate{
				WeightedPath: WeightedPath{Nodes: total, Weight: weight},
			})
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].Weight != candidates[b].Weight {
				return candidates[a].Weight < candidates[b].Weight
			}
			return lessPath(candidates[a].Nodes, candidates[b].Nodes)
		})
		paths = append(paths, candidates[0].WeightedPath)
		candidates = candidates[1:]
	}
	return paths
}

// dijkstraFiltered is Dijkstra with an edge ban list and excluded nodes.
func (g *Graph) dijkstraFiltered(src int, banned map[[2]int]bool, excluded map[int]bool) ([]float64, []int32) {
	dist := make([]float64, g.n)
	prev := make([]int32, g.n)
	for i := range dist {
		dist[i] = Infinity
		prev[i] = -1
	}
	q := &bucketQueue{}
	q.reset(g.n, g.minW, g.maxW)
	dist[src] = 0
	prev[src] = int32(src)
	q.push(int32(src), 0)
	for !q.empty() {
		u := q.pop()
		du := dist[u]
		for _, e := range g.adj[u] {
			if excluded[int(e.To)] || banned[[2]int{int(u), int(e.To)}] {
				continue
			}
			if nd := du + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = u
				q.push(e.To, nd)
			}
		}
	}
	return dist, prev
}

// pathWeight sums the edge weights along nodes; +Inf if an edge is missing.
func (g *Graph) pathWeight(nodes []int) float64 {
	total := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		w := math.Inf(1)
		for _, e := range g.adj[nodes[i]] {
			if int(e.To) == nodes[i+1] && e.W < w {
				w = e.W
			}
		}
		total += w
	}
	return total
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessPath(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func containsPath(paths []WeightedPath, p []int) bool {
	for _, q := range paths {
		if samePath(q.Nodes, p) {
			return true
		}
	}
	return false
}

// yenCandidate is a provisional path awaiting selection.
type yenCandidate struct {
	WeightedPath
}

func containsCandidate(cands []yenCandidate, p []int) bool {
	for _, q := range cands {
		if samePath(q.Nodes, p) {
			return true
		}
	}
	return false
}
