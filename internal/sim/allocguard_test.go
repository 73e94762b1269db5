package sim

import (
	"testing"

	"hypatia/internal/check/checktest"
)

// The AllocGuard tests are the allocation contract on the event engine; see
// internal/check/checktest.

// TestAllocGuardEventHeap pins the queue machinery the engine lives on:
// once the heap and the record slab have grown to the working-set size,
// fill/drain cycles of pushes — plain and through the per-device FIFOs — and
// pops allocate nothing.
func TestAllocGuardEventHeap(t *testing.T) {
	var q eventQueue
	q.devices(4)
	checktest.AllocGuard(t, "eventQueue push/pop", 0, 1, func() {
		for i := 0; i < 64; i++ {
			q.push(event{at: Time(i * 7 % 64), owner: int32(i % 5), kind: evClosure, seq: uint64(2 * i)})
			q.pushFlight(int32(i%4), event{at: Time(i * 5 % 64), owner: int32(i % 3), kind: evReceive, key: uint64(i), seq: uint64(2*i + 1)})
		}
		for q.len() > 0 {
			q.pop()
		}
	})
}

// TestAllocGuardPacketPath pins the full per-packet event chain — inject,
// forward, enqueue, serialize, receive, deliver — at zero heap allocations:
// Send reuses the record of a packet whose journey has ended, and everything
// after the injection (device rings, event records, position cache) reuses
// engine-owned storage.
func TestAllocGuardPacketPath(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	n.RegisterFlow(1, 1, func(*Packet) {})
	checktest.AllocGuard(t, "packet delivery path", 0, 1, func() {
		n.Send(0, 1, 1, 1500, nil)
		s.Run(s.Now() + Second)
	})
}

// TestAllocGuardTimer pins a Timer at zero allocations once built: arming,
// re-arming later (no event), re-arming earlier (a second carrier), firing,
// stopping, and the carrier popping as a no-op all reuse the one func value
// NewTimer bound.
func TestAllocGuardTimer(t *testing.T) {
	s, clks := timerClocks(1)
	fired := 0
	tm := clks[0].NewTimer(func() { fired++ })
	checktest.AllocGuard(t, "Timer Reset/Stop/fire", 0, 1, func() {
		tm.Reset(5)
		tm.Reset(9)
		tm.Reset(2)
		s.Run(s.Now() + 3)
		tm.Reset(4)
		tm.Stop()
		s.Run(s.Now() + 10)
	})
	if fired == 0 {
		t.Error("timer never fired")
	}
}

// TestAllocGuardShardedWindow pins the sharded loop's per-window protocol —
// lookahead.window and minPropAt once a window, and the hook journal every
// shard fills while hooks are installed — at nothing beyond what one
// RunSharded call allocates once: shard engines and their channels, the
// partition, the lookahead's link lists and position buffer, one table clone
// per shard, and the journals' growth. Each call runs 20 ms of a 1 ms paced
// flow over two shards: about ten windows and a hundred journal records, so a
// window or a record that allocated would add that many.
func TestAllocGuardShardedWindow(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	n.RegisterFlow(1, 1, func(*Packet) {})
	n.SetTransmitHook(func(TransmitInfo) {})
	n.SetDeliverHook(func(Time, int, *Packet) {})
	var pace *Timer
	pace = n.Clock(0).NewTimer(func() {
		n.Send(0, 1, 1, 1500, nil)
		pace.Reset(Millisecond)
	})
	pace.Reset(0)
	checktest.AllocGuard(t, "RunSharded window protocol", 126, 2, func() {
		n.RunSharded(s.Now()+20*Millisecond, 2)
	})
}
