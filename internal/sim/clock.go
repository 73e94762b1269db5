package sim

import "fmt"

// Clock is a node-bound scheduling handle. Transports hold one per flow and
// use it instead of Network.Sim: the closures it schedules are owned by the
// node, so they take the node's place in the canonical event order (sim.go)
// rather than running FIFO with the unowned ones.
type Clock struct {
	net  *Network
	node int32
}

// Clock returns a scheduling handle bound to ground station gs. It panics
// when gs is not a station index.
func (n *Network) Clock(gs int) Clock {
	return Clock{net: n, node: n.gsNode(gs, "Clock")}
}

// Now returns the engine's current time.
func (c Clock) Now() Time { return c.net.Sim.now }

// Schedule enqueues fn to run delay from now, owned by the clock's node.
// Negative delays panic, as on Simulator.Schedule.
func (c Clock) Schedule(delay Time, fn func()) {
	s := c.net.Sim
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", delay, s.now))
	}
	s.scheduleOwnedAt(s.now+delay, c.node, fn)
}
