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
// pops allocate nothing. The working set spans more than three slab pages, so
// the free chain hands out records from every one of them.
func TestAllocGuardEventHeap(t *testing.T) {
	const events = 3*recPageLen + 256
	var q eventQueue
	q.devices(4)
	checktest.AllocGuard(t, "eventQueue push/pop", 0, 1, func() {
		for i := 0; i < events/2; i++ {
			q.push(event{at: Time(i * 7 % 1024), owner: int32(i % 5), kind: evClosure, key: uint64(2 * i)})
			pushFlight(&q, int32(i%4), event{at: Time(i * 5 % 1024), owner: int32(i % 3), kind: evReceive, key: uint64(2*i + 1)})
		}
		for q.len() > 0 {
			q.release(q.pop(never))
		}
	})
	if len(q.pages) < 4 {
		t.Fatalf("working set reached %d slab pages, want 4", len(q.pages))
	}
}

// TestAllocGuardPacketPath pins the full per-packet event chain — inject,
// forward, enqueue, serialize, receive, deliver — at zero heap allocations:
// Send takes the slab record of a packet whose journey has ended, and
// everything after the injection (device rings, the record itself, position
// cache) reuses engine-owned storage.
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
