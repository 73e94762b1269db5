package sim

import (
	"fmt"
	"strings"
	"testing"

	"hypatia/internal/routing"
)

// shardedResult captures everything a run observably produces: the full
// hook trace plus end-of-run counters and device state.
type shardedResult struct {
	trace     string
	delivered uint64
	drops     [int(numDropReasons)]uint64
	devs      []DeviceStats
	now       Time
}

// runShardedScenario executes a fixed traffic scenario — a periodic echo
// flow GS0<->GS1 paced by a Timer and watched by a second one that every reply
// pushes back, a queue-overflowing burst GS2->GS1, deterministic link
// loss, and forwarding updates at 100 ms granularity — serially (shards=0)
// or on the sharded engine, optionally switching to the serial loop at
// splitAt or stopping at stopAt and resuming, and returns the observable
// outcome.
func runShardedScenario(t *testing.T, shards int, splitAt, stopAt Time) shardedResult {
	t.Helper()
	topo := testTopo(t)
	s := NewSimulator()
	n, err := NewNetwork(s, topo, Config{
		ISLRateBps: 4e6, GSLRateBps: 4e6, QueuePackets: 4,
		LossModel: func(from, to int, at Time) bool {
			return (uint64(from)*2654435761+uint64(to)*40503+uint64(at))%97 == 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.InstallForwarding(topo.Snapshot(0).ForwardingTable())

	var tr strings.Builder
	n.SetTransmitHook(func(ti TransmitInfo) {
		fmt.Fprintf(&tr, "TX %v %d->%d pkt=%d hops=%d\n", ti.Start, ti.From, ti.To, ti.Packet.ID, ti.Packet.Hops)
	})
	n.SetDropHook(func(at Time, node int, pkt *Packet, reason DropReason) {
		fmt.Fprintf(&tr, "DROP %v node=%d pkt=%d %s\n", at, node, pkt.ID, reason)
	})
	n.SetDeliverHook(func(at Time, gs int, pkt *Packet) {
		fmt.Fprintf(&tr, "RX %v gs=%d pkt=%d hops=%d\n", at, gs, pkt.ID, pkt.Hops)
	})

	// Flow 1: GS0 pings GS1 every 5 ms; GS1 echoes back. Both timers are
	// armed before the run, so their carriers migrate to a shard engine with
	// the run, back at a Stop or a split, and out again on resume. The
	// watchdog is the retransmission-timer shape: each reply moves its
	// deadline later under a carrier that stays where it is, and it fires
	// (a flow 4 packet in the trace) only after a lost ping or reply.
	clk0 := n.Clock(0)
	var pace, watchdog *Timer
	watchdogFired, watchdogPushed := 0, 0
	pace = clk0.NewTimer(func() {
		n.Send(0, 1, 1, 300, nil)
		pace.Reset(5 * Millisecond)
	})
	watchdog = clk0.NewTimer(func() {
		watchdogFired++
		n.Send(0, 1, 4, 100, nil)
		watchdog.Reset(7 * Millisecond)
	})
	n.RegisterFlow(0, 1, func(*Packet) {
		watchdogPushed++
		watchdog.Reset(7 * Millisecond)
	})
	n.RegisterFlow(1, 1, func(p *Packet) { n.Send(1, 0, 1, 200, nil) })
	n.RegisterFlow(1, 4, func(*Packet) {})
	pace.Reset(0)
	watchdog.Reset(7 * Millisecond)

	// Flow 2: GS0 bursts 30 packets at t=50 ms into 4-packet queues,
	// overflowing its GSL device (queue drops).
	n.RegisterFlow(1, 2, func(*Packet) {})
	clk0.Schedule(50*Millisecond, func() {
		for i := 0; i < 30; i++ {
			n.Send(0, 1, 2, 1200, nil)
		}
	})

	// Flow 3: GS2 is the pole station with no satellite in view at
	// MinElev 25 — its sends drop as DropNoRoute at the source.
	clk2 := n.Clock(2)
	n.RegisterFlow(1, 3, func(*Packet) {})
	clk2.Schedule(60*Millisecond, func() {
		for i := 0; i < 3; i++ {
			n.Send(2, 1, 3, 800, nil)
		}
	})

	const duration = 300 * Millisecond
	installs := []Time{100 * Millisecond, 200 * Millisecond, 300 * Millisecond}
	tables := make(chan *routing.ForwardingTable, len(installs))
	for _, at := range installs {
		tables <- topo.Snapshot(at.Seconds()).ForwardingTable()
	}
	n.ScheduleInstalls(installs, tables)
	run := func(until Time, shards int) {
		if shards == 0 {
			s.Run(until)
		} else {
			n.RunSharded(until, shards)
		}
	}
	if stopAt > 0 {
		// A closure stops the run through the root engine — the only engine
		// user code can name — and the run is then resumed to the end.
		clk0.Schedule(stopAt, s.Stop)
		run(duration, shards)
		if s.Now() >= duration || n.Installs() == len(installs) {
			t.Errorf("shards=%d: Stop at %v ignored: clock %v, %d installs", shards, stopAt, s.Now(), n.Installs())
		}
	}
	if splitAt > 0 {
		// Exercise resumability: sharded to splitAt, serial to the end. The
		// installs past splitAt return to the root engine with everything else.
		run(splitAt, shards)
		shards = 0
	}
	run(duration, shards)
	if got := n.Installs(); got != len(installs) {
		t.Errorf("shards=%d split=%v: %d installs executed, want %d", shards, splitAt, got, len(installs))
	}

	if watchdogFired == 0 || watchdogPushed <= watchdogFired {
		t.Errorf("shards=%d: watchdog fired %d times and was pushed back %d times; the scenario wants some of the first and more of the second",
			shards, watchdogFired, watchdogPushed)
	}
	res := shardedResult{trace: tr.String(), delivered: n.Delivered(), devs: n.DeviceStats(), now: s.Now()}
	for r := DropReason(0); r < numDropReasons; r++ {
		res.drops[r] = n.Drops(r)
	}
	return res
}

// TestShardedMatchesSerial is the sim-level differential: the sharded engine
// must reproduce the serial run's trace and counters byte for byte, at
// several shard counts.
func TestShardedMatchesSerial(t *testing.T) {
	want := runShardedScenario(t, 0, 0, 0)
	if want.delivered == 0 || want.drops[DropQueue] == 0 ||
		want.drops[DropLink] == 0 || want.drops[DropNoRoute] == 0 {
		t.Fatalf("scenario not exercising the paths under test: %+v", want.drops)
	}
	for _, shards := range []int{1, 2, 3, 5, 8} {
		got := runShardedScenario(t, shards, 0, 0)
		if got.trace != want.trace {
			t.Errorf("shards=%d: trace diverges from serial (%d vs %d bytes): first diff at byte %d",
				shards, len(got.trace), len(want.trace), firstDiff(got.trace, want.trace))
		}
		if got.delivered != want.delivered || got.drops != want.drops {
			t.Errorf("shards=%d: delivered/drops = %d/%v, want %d/%v",
				shards, got.delivered, got.drops, want.delivered, want.drops)
		}
		if len(got.devs) != len(want.devs) {
			t.Fatalf("shards=%d: %d devices, want %d", shards, len(got.devs), len(want.devs))
		}
		for i := range got.devs {
			if got.devs[i] != want.devs[i] {
				t.Errorf("shards=%d: device %d stats %+v, want %+v", shards, i, got.devs[i], want.devs[i])
			}
		}
		if got.now != want.now {
			t.Errorf("shards=%d: clock %v, want %v", shards, got.now, want.now)
		}
	}
}

// TestShardedResume verifies a sharded run leaves the root engine in a
// resumable state: sharded to mid-run, then serial to the end, must equal
// the all-serial run.
func TestShardedResume(t *testing.T) {
	want := runShardedScenario(t, 0, 0, 0)
	got := runShardedScenario(t, 3, 150*Millisecond, 0)
	if got.trace != want.trace {
		t.Errorf("resumed trace diverges from serial: first diff at byte %d", firstDiff(got.trace, want.trace))
	}
	if got.delivered != want.delivered || got.drops != want.drops {
		t.Errorf("resumed delivered/drops = %d/%v, want %d/%v", got.delivered, got.drops, want.delivered, want.drops)
	}
}

// TestShardedStopResume: a Stop issued from a running event halts a sharded
// run at the next window boundary, and resuming it reproduces the serial
// run that was stopped and resumed the same way.
func TestShardedStopResume(t *testing.T) {
	want := runShardedScenario(t, 0, 0, 120*Millisecond)
	for _, shards := range []int{2, 5} {
		got := runShardedScenario(t, shards, 0, 120*Millisecond)
		if got.trace != want.trace {
			t.Errorf("shards=%d: stopped-and-resumed trace diverges from serial: first diff at byte %d",
				shards, firstDiff(got.trace, want.trace))
		}
		if got.delivered != want.delivered || got.drops != want.drops || got.now != want.now {
			t.Errorf("shards=%d: delivered/drops/clock = %d/%v/%v, want %d/%v/%v",
				shards, got.delivered, got.drops, got.now, want.delivered, want.drops, want.now)
		}
	}
}

// TestShardedNoHooks runs the sharded engine without hooks (no journaling)
// and checks counters only — the fast path used by benchmarks.
func TestShardedNoHooks(t *testing.T) {
	topo := testTopo(t)
	run := func(shards int) (uint64, uint64) {
		s := NewSimulator()
		n, err := NewNetwork(s, topo, Config{QueuePackets: 4})
		if err != nil {
			t.Fatal(err)
		}
		n.InstallForwarding(topo.Snapshot(0).ForwardingTable())
		clk := n.Clock(0)
		n.RegisterFlow(1, 7, func(*Packet) {})
		var tick func()
		tick = func() {
			n.Send(0, 1, 7, 1500, nil)
			clk.Schedule(2*Millisecond, tick)
		}
		clk.Schedule(0, tick)
		if shards == 0 {
			s.Run(100 * Millisecond)
		} else {
			n.RunSharded(100*Millisecond, shards)
		}
		return n.Delivered(), n.TotalDrops()
	}
	wantD, wantX := run(0)
	if wantD == 0 {
		t.Fatal("no deliveries in serial reference")
	}
	for _, shards := range []int{2, 4} {
		if d, x := run(shards); d != wantD || x != wantX {
			t.Errorf("shards=%d: delivered/drops = %d/%d, want %d/%d", shards, d, x, wantD, wantX)
		}
	}
}

// TestClockSerialEquivalence pins that Clock handles, and Timers on them,
// behave exactly like the root simulator outside sharded runs.
func TestClockSerialEquivalence(t *testing.T) {
	_, n, _ := testNet(t, Config{})
	clk := n.Clock(0)
	if clk.Now() != n.Sim.Now() {
		t.Fatalf("Clock.Now = %v, Sim.Now = %v", clk.Now(), n.Sim.Now())
	}
	var at, timerAt Time
	clk.Schedule(7*Millisecond, func() { at = clk.Now() })
	clk.NewTimer(func() { timerAt = n.Sim.Now() }).Reset(9 * Millisecond)
	n.Sim.Run(Second)
	if at != 7*Millisecond {
		t.Errorf("clock-scheduled event ran at %v, want 7ms", at)
	}
	if timerAt != 9*Millisecond {
		t.Errorf("clock timer fired at %v, want 9ms", timerAt)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Clock delay did not panic")
		}
	}()
	clk.Schedule(-1, func() {})
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
