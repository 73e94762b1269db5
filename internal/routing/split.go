package routing

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// TreeVisitor receives one shortest-path tree from Split.Solve: the worker
// that solved it (0 ≤ w < Split.Workers()), the root ground station, and the
// distance (meters, +Inf unreachable) and predecessor (-1 unreachable, the
// root its own) arrays over all nodes, as Dijkstra rooted at that station's
// node fills them. The graph is undirected, so the tree rooted at a station
// is at once the forwarding column toward it (prev[v] = v's next hop) and
// the shortest paths from it.
//
// The arrays are the worker's and are overwritten by its next root: a
// visitor reads what it needs and returns. Calls for distinct roots run
// concurrently, but one worker's calls never overlap, so state a visitor
// keeps per worker index, or per root, needs no lock.
type TreeVisitor func(w, gs int, dist []float64, prev []int32)

// Split solves an instant's trees over a fixed root list on every core. The
// calling goroutine is worker 0, and one helper goroutine per extra worker
// waits between instants. Solve moves the engine to the instant (advance),
// wakes the helpers, and then, while they claim roots from one cursor, each
// on its own treeScratch, worker 0 builds the graph of the instant the
// caller will ask for next (prefetch) before it claims roots too. A helper
// the scheduler does not run costs the instant nothing — the caller claims
// its roots instead — while one that wins a core another goroutine wanted
// holds it for the rest of the instant's roots, which is what the split
// costs a packet run (DESIGN.md, "One forwarding-state producer").
//
// The trees do not depend on the worker count: a root's repair reads only
// the frozen graph and its own settle order.
//
// Stop, from any goroutine, abandons the instant in progress: every worker
// finishes the tree it holds and claims no other, so a split stops within
// one tree per worker, and every later Solve returns at once.
type Split struct {
	eng   *IncrementalEngine
	roots []int
	blank []int // the ground stations outside roots, whose columns Table blanks
	visit TreeVisitor

	cursor  atomic.Int64 // into roots for the instant being solved
	stopped atomic.Bool  // set by Stop, for good
	helpers int
	start   chan struct{}  // one receive per helper per instant; closed to stop them
	busy    sync.WaitGroup // helpers still claiming this instant's roots
	exited  sync.WaitGroup // helpers not yet returned
	closed  bool
}

// NewSplit returns a split over the given roots (nil = every ground
// station, in index order) that hands each tree to visit, and starts its
// helpers: the worker count is GOMAXPROCS now, capped at the number of
// roots, so at one worker no goroutine starts. The split drives the engine
// from here on; the caller must Close it, or its helpers outlive it.
func (e *IncrementalEngine) NewSplit(roots []int, visit TreeVisitor) *Split {
	s := &Split{eng: e, roots: e.roots(roots), blank: e.inactive(nil, roots), visit: visit}
	s.helpers = max(0, min(runtime.GOMAXPROCS(0), len(s.roots))-1)
	s.start = make(chan struct{}, s.helpers)
	s.exited.Add(s.helpers)
	for w := 1; w <= s.helpers; w++ {
		go s.helper(w, e.newTreeScratch())
	}
	return s
}

// Workers returns the number of workers, and so the bound on the worker
// index a visitor is handed.
func (s *Split) Workers() int { return s.helpers + 1 }

// Solve advances the engine to time tsec and hands every root's tree at
// that instant to the visitor, returning once all have been visited. next
// is the time the caller will solve after this one, or NaN when there is
// none: its graph is built while this instant's trees are solved, and the
// next Solve adopts it if asked for that time. Solve reports whether every
// root was visited, which is false only after Stop: then the instant's
// trees are partly visited or not at all, and whatever the visitor filled
// is incomplete. Only one goroutine may call Solve at a time, and never
// after Close.
func (s *Split) Solve(tsec, next float64) bool {
	if s.stopped.Load() {
		return false
	}
	s.eng.advance(tsec)
	s.cursor.Store(0)
	s.busy.Add(s.helpers)
	for range s.helpers {
		s.start <- struct{}{}
	}
	if !math.IsNaN(next) && !s.stopped.Load() {
		s.eng.prefetch(next)
	}
	s.claim(0, s.eng.scratch)
	s.busy.Wait()
	return s.cursor.Load() >= int64(len(s.roots))
}

// Stop abandons the split's work: the Solve in progress, if any, returns
// once each worker has finished the tree it holds, and every later Solve
// returns false without solving anything. Unlike the split's other calls
// Stop may come from any goroutine, any number of times; the owner must
// still Close the split.
func (s *Split) Stop() { s.stopped.Store(true) }

// Table draws a table for time tsec from the engine's pool for the visitor
// to fill: the columns of the ground stations outside the split's roots are
// unreachable, and the roots' columns hold whatever the buffer held until
// the visitor sets each of them (ForwardingTable.SetDestination) in Solve.
// Like Solve it is a single-owner call.
func (s *Split) Table(tsec float64) *ForwardingTable {
	return s.eng.table(tsec, s.blank)
}

// Work is what a split's engine has done since it was made, in counts that
// depend only on the code and its input — not on the host, the scheduler or
// the worker count — so a budget on them reads the same on any machine.
type Work struct {
	Builds     int // instant graphs built and frozen
	Trees      int // trees solved, on every worker
	SecondPass int // nodes the repairs sent through their second pass (graph.RepairScratch.SecondPass)
	Blanked    int // entries set to -1 in the tables the engine drew (Split.Table, Step)
}

// Work returns the engine's counts. Like Solve it is a single-owner call.
func (s *Split) Work() Work {
	e := s.eng
	w := Work{Builds: e.builds, Blanked: e.blanked}
	for _, sc := range e.scratches {
		w.Trees += sc.trees
		w.SecondPass += sc.repair.SecondPass()
	}
	return w
}

// helper is worker w: it solves the roots it claims of every instant Solve
// starts, until Close closes start.
func (s *Split) helper(w int, sc *treeScratch) {
	defer s.exited.Done()
	for range s.start {
		s.claim(w, sc)
		s.busy.Done()
	}
}

// claim solves roots off the shared cursor on worker w until none is left
// or the split is stopped. A stopped worker leaves the cursor alone, so
// Solve can tell from it whether every root was claimed.
func (s *Split) claim(w int, sc *treeScratch) {
	for !s.stopped.Load() {
		i := int(s.cursor.Add(1)) - 1
		if i >= len(s.roots) {
			return
		}
		gs := s.roots[i]
		s.eng.solve(sc, gs)
		s.visit(w, gs, sc.dist, sc.prev)
	}
}

// Close stops the helpers and waits for them to return. It is idempotent,
// and like Solve a single-owner call.
func (s *Split) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.start)
	s.exited.Wait()
}
