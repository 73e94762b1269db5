// Package copylock is a hypatialint fixture for the copylock check.
package copylock

import (
	"sync"

	"hypatia/internal/sim"
)

// Guarded contains a mutex and must only move by pointer.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Lock/Unlock delegate so Guarded itself is lock-like.
func (g *Guarded) Lock()   { g.mu.Lock() }
func (g *Guarded) Unlock() { g.mu.Unlock() }

// Nested embeds a Guarded by value, so it is no-copy transitively.
type Nested struct {
	inner Guarded
	name  string
}

func ByValueParam(g Guarded) int { // want copylock
	return g.n
}

func (g Guarded) ValueMethod() int { // want copylock
	return g.n
}

func NestedParam(n Nested) string { // want copylock
	return n.name
}

func Assign(a *Guarded) {
	b := *a // want copylock
	_ = b.n
}

func Range(gs []Guarded, engines []sim.Simulator) {
	for _, g := range gs { // want copylock
		_ = g.n
	}
	for _, e := range engines { // want copylock
		_ = e.Now()
	}
}

func Literal(a *Nested) Nested {
	return Nested{inner: a.inner} // want copylock
}

func CopyEngine(s *sim.Simulator) sim.Time {
	engine := *s // want copylock
	return engine.Now()
}

// Good exercises the negatives: pointers, fresh literals, wait-group use by
// pointer, and discarding with blank.
func Good(a *Guarded, engines []sim.Simulator) {
	c := Guarded{}
	c.mu.Lock()
	c.mu.Unlock()
	p := a
	_ = p
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
	for i := range engines {
		_ = engines[i].Now()
	}
}

// Suppressed exercises the //lint:ignore escape hatch.
func Suppressed(a *Guarded) {
	//lint:ignore copylock snapshot of a quiescent value for a test double
	b := *a
	_ = b.n
}

// CleanButIgnored carries an ignore that matches nothing, so the directive
// itself is stale.
func CleanButIgnored(a *Guarded) int {
	//lint:ignore copylock stale by design // want staleignore
	return a.n
}
