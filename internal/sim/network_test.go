package sim

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"hypatia/internal/check"
	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/groundstation"
	"hypatia/internal/routing"
)

// testTopo builds a dense-enough mini constellation with two well-covered
// ground stations.
func testTopo(t *testing.T) *routing.Topology {
	t.Helper()
	cfg := constellation.Config{
		Name: "Mini",
		Shells: []constellation.Shell{{
			Name: "M1", AltitudeKm: 630, Orbits: 16, SatsPerOrbit: 16,
			IncDeg: 53,
		}},
		MinElevDeg: 25,
	}
	c, err := constellation.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gss := []groundstation.GS{
		{ID: 0, Name: "Istanbul", Position: geom.LLADeg(41.0082, 28.9784, 0)},
		{ID: 1, Name: "Nairobi", Position: geom.LLADeg(-1.2921, 36.8219, 0)},
		{ID: 2, Name: "NorthPole", Position: geom.LLADeg(89.5, 0, 0)},
	}
	topo, err := routing.NewTopology(c, gss, routing.GSLFree)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// testNet builds a network plus simulator with forwarding installed at t=0.
func testNet(t *testing.T, cfg Config) (*Simulator, *Network, *routing.Topology) {
	t.Helper()
	topo := testTopo(t)
	s := NewSimulator()
	n, err := NewNetwork(s, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.InstallForwarding(topo.Snapshot(0).ForwardingTable())
	return s, n, topo
}

func TestNewNetworkValidation(t *testing.T) {
	topo := testTopo(t)
	if _, err := NewNetwork(NewSimulator(), topo, Config{ISLRateBps: -1}); err == nil {
		t.Error("negative ISL rate accepted")
	}
	if _, err := NewNetwork(NewSimulator(), topo, Config{QueuePackets: -1}); err == nil {
		t.Error("negative queue accepted")
	}
	// A negative hop limit dropped every packet as ttl-exceeded; a negative
	// position quantum made the first Send double the position ring forever.
	if _, err := NewNetwork(NewSimulator(), topo, Config{MaxHops: -1}); err == nil {
		t.Error("negative hop limit accepted")
	}
	if _, err := NewNetwork(NewSimulator(), topo, Config{PosQuantum: -Millisecond}); err == nil {
		t.Error("negative position quantum accepted")
	}
	// Zero values take the paper defaults.
	n, err := NewNetwork(NewSimulator(), topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Config(); got.ISLRateBps != 10e6 || got.GSLRateBps != 10e6 || got.QueuePackets != 100 || got.MaxHops != 64 || got.PosQuantum != 10*Millisecond {
		t.Errorf("defaults not applied: %+v", got)
	}
}

func TestHeterogeneousLinkRates(t *testing.T) {
	// Future-work extension: per-link capacity overrides. Make the source
	// GS's uplink 10x faster; back-to-back packets then arrive spaced by
	// the slower downstream links, but the first hop serializes 10x
	// quicker, which shows up in one-packet latency.
	cfg := DefaultConfig()
	topo := testTopo(t)
	cfg.RateFor = func(node, peer int) float64 {
		if node == topo.GSNode(0) && peer == -1 {
			return 100e6
		}
		return 0
	}
	s := NewSimulator()
	n, err := NewNetwork(s, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.InstallForwarding(topo.Snapshot(0).ForwardingTable())
	var fastAt Time
	n.RegisterFlow(1, 1, func(*Packet) { fastAt = s.Now() })
	n.Send(0, 1, 1, 1500, nil)
	s.Run(Second)

	// Uniform-rate baseline for comparison.
	s2 := NewSimulator()
	n2, err := NewNetwork(s2, testTopo(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n2.InstallForwarding(n2.Topo.Snapshot(0).ForwardingTable())
	var slowAt Time
	n2.RegisterFlow(1, 1, func(*Packet) { slowAt = s2.Now() })
	n2.Send(0, 1, 1, 1500, nil)
	s2.Run(Second)

	if fastAt == 0 || slowAt == 0 {
		t.Fatal("packets not delivered")
	}
	// The fast uplink saves 1500B*(1/10Mbps - 1/100Mbps) = 1.08 ms.
	saved := slowAt - fastAt
	if saved < Seconds(0.0009) || saved > Seconds(0.0013) {
		t.Errorf("fast uplink saved %v, want about 1.08 ms", saved)
	}
}

func TestLossModelDropsInFlight(t *testing.T) {
	// Future-work extension: weather-style loss. Drop everything leaving
	// the source ground station.
	topo := testTopo(t)
	cfg := DefaultConfig()
	srcNode := topo.GSNode(0)
	cfg.LossModel = func(from, to int, at Time) bool { return from == srcNode }
	s := NewSimulator()
	n, err := NewNetwork(s, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.InstallForwarding(topo.Snapshot(0).ForwardingTable())
	n.RegisterFlow(1, 1, func(*Packet) { t.Error("packet survived total loss") })
	for i := 0; i < 5; i++ {
		n.Send(0, 1, 1, 1500, nil)
	}
	s.Run(Second)
	if got := n.Drops(DropLink); got != 5 {
		t.Errorf("link-loss drops = %d, want 5", got)
	}
}

func TestLossModelPartialLossStillDelivers(t *testing.T) {
	// A 50% coin-flip loss (deterministic alternation) delivers roughly
	// half the packets.
	topo := testTopo(t)
	cfg := DefaultConfig()
	srcNode := topo.GSNode(0)
	toggle := false
	cfg.LossModel = func(from, to int, at Time) bool {
		if from != srcNode {
			return false
		}
		toggle = !toggle
		return toggle
	}
	s := NewSimulator()
	n, err := NewNetwork(s, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.InstallForwarding(topo.Snapshot(0).ForwardingTable())
	got := 0
	n.RegisterFlow(1, 1, func(*Packet) { got++ })
	for i := 0; i < 10; i++ {
		n.Send(0, 1, 1, 1500, nil)
	}
	s.Run(Second)
	if got != 5 {
		t.Errorf("delivered %d of 10 under alternating loss", got)
	}
}

func TestPacketDelivery(t *testing.T) {
	s, n, topo := testNet(t, DefaultConfig())
	var got Packet // a copy: the pointer is valid only inside the handler
	var at Time
	n.RegisterFlow(1, 7, func(p *Packet) { got, at = *p, s.Now() })

	n.Send(0, 1, 7, 1500, "hello")
	s.Run(Second)

	if n.Delivered() == 0 {
		t.Fatal("packet not delivered")
	}
	if got.Payload != "hello" || got.SrcGS != 0 || got.DstGS != 1 {
		t.Errorf("packet corrupted: %+v", got)
	}
	if n.Delivered() != 1 {
		t.Errorf("delivered = %d", n.Delivered())
	}

	// Expected latency: per-hop serialization (1500 B at 10 Mb/s = 1.2 ms)
	// plus propagation along the snapshot shortest path.
	path, dist := topo.Snapshot(0).Path(0, 1)
	if path == nil {
		t.Fatal("no path in snapshot")
	}
	hops := len(path) - 1
	want := Seconds(float64(hops)*1500*8/10e6) + Seconds(dist/geom.SpeedOfLight)
	if diff := (at - want).Seconds(); math.Abs(diff) > 1e-3 {
		t.Errorf("delivery at %v, want about %v (hops=%d)", at, want, hops)
	}
	if int(got.Hops) != hops {
		t.Errorf("hops = %d, want %d", got.Hops, hops)
	}
	if got.Seq != 0 || got.Ack != 0 || got.Flags != 0 {
		t.Errorf("Send set header words: seq=%d ack=%d flags=%#x", got.Seq, got.Ack, got.Flags)
	}
}

// TestSendHeaderCarriesWords: the header words reach the handler as sent, next
// to a payload, and a recycled record does not leak them into the next packet.
func TestSendHeaderCarriesWords(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	var got []Packet
	n.RegisterFlow(1, 7, func(p *Packet) { got = append(got, *p) })
	n.SendHeader(0, 1, 7, 40, -3, 1<<40, 0x81, "extra")
	s.Run(Second)
	n.Send(0, 1, 7, 40, nil) // reuses the first packet's record
	s.Run(2 * Second)
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	if p := got[0]; p.Seq != -3 || p.Ack != 1<<40 || p.Flags != 0x81 || p.Payload != "extra" || p.Size != 40 {
		t.Errorf("header packet arrived as %+v", p)
	}
	if p := got[1]; p.Seq != 0 || p.Ack != 0 || p.Flags != 0 || p.Payload != nil {
		t.Errorf("plain packet after a header packet arrived as %+v", p)
	}
}

// TestPageElementsFillWholePages pins the sizes and offsets the slab depends
// on. A packet rides inside its event's record, so Packet stays within 80
// bytes (the header words and the 32-bit Size, Hops and station indices pay
// for it) and a record is 128. A page of 1 024 records is then a whole number
// of 8 KiB runtime pages, so the allocator hands out exactly the bytes asked
// for, page-aligned, and every record of a live queue starts on a 128-byte
// boundary: two aligned cache lines, of which the queue reads only the first,
// where at, src, next and succAt sit (DESIGN.md, "Event records").
// eventQueue.pop's prefetch relies on that alignment: it fetches
// the 64 bytes at the record and the 64 after, which are the whole record
// only if it starts on a line.
func TestPageElementsFillWholePages(t *testing.T) {
	if sz := unsafe.Sizeof(Packet{}); sz > 80 {
		t.Errorf("unsafe.Sizeof(Packet{}) = %d, want <= 80", sz)
	}
	const recSize, line = 128, 64
	if sz := unsafe.Sizeof(record{}); sz != recSize {
		t.Errorf("unsafe.Sizeof(record{}) = %d, want %d", sz, recSize)
	}
	var r record
	for _, f := range []struct {
		name     string
		off, len uintptr
	}{
		{"at", unsafe.Offsetof(r.at), unsafe.Sizeof(r.at)},
		{"key", unsafe.Offsetof(r.key), unsafe.Sizeof(r.key)},
		{"owner", unsafe.Offsetof(r.owner), unsafe.Sizeof(r.owner)},
		{"kind", unsafe.Offsetof(r.kind), unsafe.Sizeof(r.kind)},
		{"src", unsafe.Offsetof(r.src), unsafe.Sizeof(r.src)},
		{"next", unsafe.Offsetof(r.next), unsafe.Sizeof(r.next)},
		{"succAt", unsafe.Offsetof(r.succAt), unsafe.Sizeof(r.succAt)},
	} {
		if f.off+f.len > line {
			t.Errorf("record.%s occupies bytes %d..%d, outside the record's first %d-byte line", f.name, f.off, f.off+f.len, line)
		}
	}
	const runtimePage = 8 << 10
	if sz := recPageLen * unsafe.Sizeof(record{}); sz%runtimePage != 0 {
		t.Errorf("an event slab page is %d bytes, not a whole number of %d-byte runtime pages", sz, runtimePage)
	}
	var q eventQueue
	for i := int32(1); i <= 2*recPageLen+3; i++ {
		q.push(event{at: Time(i), owner: -1, kind: evClosure, key: uint64(i)})
		if a := uintptr(unsafe.Pointer(q.rec(i))); a%recSize != 0 {
			t.Fatalf("record %d of a live queue is at %#x, not %d-byte aligned", i, a, recSize)
		}
	}
}

// TestHandlerPacketSurvivesSlabGrowth: a handler's *Packet points into the
// slab record its delivery popped, and stays intact while the handler sends
// enough packets to add slab pages, every one of them waiting in a queue.
func TestHandlerPacketSurvivesSlabGrowth(t *testing.T) {
	const burst = 2 * recPageLen
	cfg := DefaultConfig()
	cfg.QueuePackets = burst
	s, n, _ := testNet(t, cfg)
	var pagesBefore, pagesAfter int
	n.RegisterFlow(0, 2, func(*Packet) {})
	n.RegisterFlow(1, 1, func(p *Packet) {
		before := *p
		pagesBefore = len(s.events.pages)
		for k := 0; k < burst; k++ {
			n.Send(1, 0, 2, 1500, nil)
		}
		pagesAfter = len(s.events.pages)
		if *p != before {
			t.Errorf("the delivered packet changed while its handler sent: %+v, was %+v", *p, before)
		}
		if p.Payload != "mine" || p.SrcGS != 0 || p.DstGS != 1 || p.Size != 1200 {
			t.Errorf("the delivered packet reads %+v", *p)
		}
	})
	n.Send(0, 1, 1, 1200, "mine")
	s.Run(Second)
	if pagesAfter < pagesBefore+2 {
		t.Errorf("the handler's sends grew the slab from %d to %d pages, want at least two more", pagesBefore, pagesAfter)
	}
	if got := n.Drops(DropQueue); got != 0 {
		t.Errorf("%d of the burst dropped; the test needs them all queued", got)
	}
}

// TestPendingCountsOnlyQueuedEvents: the record of the event executing is
// taken, not pending, even while it carries a packet — a handler, a drop hook
// and a closure each see only what is still queued.
func TestPendingCountsOnlyQueuedEvents(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	seen := map[string]int{}
	n.RegisterFlow(1, 1, func(*Packet) { seen["handler"] = s.Pending() })
	n.SetDropHook(func(Time, int, *Packet, DropReason) { seen["drop hook"] = s.Pending() })
	n.Send(0, 1, 1, 1500, nil)
	s.Run(Second)
	n.Send(0, 1, 42, 1500, nil) // no handler: dropped at the destination
	s.Run(2 * Second)
	s.Schedule(0, func() { seen["closure"] = s.Pending() })
	s.Run(3 * Second)
	for _, what := range []string{"handler", "drop hook", "closure"} {
		if got, ok := seen[what]; !ok || got != 0 {
			t.Errorf("%s saw Pending() = %d (ran: %v), want 0", what, got, ok)
		}
	}
}

// TestReleasedPacketIsPoisoned: once its callback returns, a packet's record
// goes back to the slab. Its payload reference is dropped for the GC, and in
// hypatia_checks builds its ID, Hops and Size read ^0, -1 and -1, so a
// retained *Packet fails loudly instead of reading the next packet.
func TestReleasedPacketIsPoisoned(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	var kept *Packet
	n.RegisterFlow(1, 1, func(p *Packet) { kept = p })
	n.Send(0, 1, 1, 1500, "payload")
	s.Run(Second)
	if kept == nil {
		t.Fatal("packet not delivered")
	}
	if kept.Payload != nil {
		t.Errorf("a released record still references its payload %v", kept.Payload)
	}
	if check.Enabled && (kept.ID != ^uint64(0) || kept.Hops != -1 || kept.Size != -1) {
		t.Errorf("a released record reads ID %#x, Hops %d, Size %d; want the poison ^0, -1, -1", kept.ID, kept.Hops, kept.Size)
	}
}

// TestEmptyPacketTakesANanosecond: serialization takes at least a
// nanosecond, so two empty packets queued on one device complete at distinct
// instants and their evTransmitDone keys, which are the device, stay unique.
func TestEmptyPacketTakesANanosecond(t *testing.T) {
	s, n, topo := testNet(t, DefaultConfig())
	src := topo.GSNode(0)
	var starts []Time
	n.SetTransmitHook(func(ti TransmitInfo) {
		if ti.From == src {
			starts = append(starts, ti.Start)
		}
	})
	n.RegisterFlow(1, 1, func(*Packet) {})
	n.Send(0, 1, 1, 0, nil)
	n.Send(0, 1, 1, 0, nil)
	s.Run(Second)
	if len(starts) != 2 || starts[1]-starts[0] != Nanosecond {
		t.Errorf("two empty packets started serializing at %v, want 1 ns apart", starts)
	}
	if n.Delivered() != 2 {
		t.Errorf("delivered %d of 2 empty packets", n.Delivered())
	}
}

func TestDeliveryToUnreachableDstDropsNoRoute(t *testing.T) {
	_, n, _ := testNet(t, DefaultConfig())
	// GS 2 is at the pole, invisible to a 53-degree-inclination shell at a
	// 25-degree minimum elevation.
	n.Send(0, 2, 1, 1500, nil)
	n.Sim.Run(Second)
	if n.Drops(DropNoRoute) != 1 {
		t.Errorf("no-route drops = %d", n.Drops(DropNoRoute))
	}
	if n.Delivered() != 0 {
		t.Error("packet to pole delivered")
	}
}

func TestMissingHandlerDrops(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	n.Send(0, 1, 42, 1500, nil) // no handler for flow 42
	s.Run(Second)
	if n.Drops(DropNoHandler) != 1 {
		t.Errorf("no-handler drops = %d", n.Drops(DropNoHandler))
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueuePackets = 5
	s, n, _ := testNet(t, cfg)
	received := 0
	n.RegisterFlow(1, 1, func(*Packet) { received++ })
	// Burst 20 packets at once: 1 transmits immediately, 5 queue, 14 drop.
	for i := 0; i < 20; i++ {
		n.Send(0, 1, 1, 1500, nil)
	}
	s.Run(10 * Second)
	if n.Drops(DropQueue) != 14 {
		t.Errorf("queue drops = %d, want 14", n.Drops(DropQueue))
	}
	if received != 6 {
		t.Errorf("received = %d, want 6", received)
	}
}

func TestHopLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHops = 1
	s, n, topo := testNet(t, cfg)
	n.RegisterFlow(1, 1, func(*Packet) { t.Error("multi-hop packet delivered under MaxHops=1") })
	// The Istanbul->Nairobi path has at least 3 hops (up, >=1 ISL, down).
	if path, _ := topo.Snapshot(0).Path(0, 1); len(path)-1 < 3 {
		t.Skipf("unexpectedly short path %v", path)
	}
	n.Send(0, 1, 1, 1500, nil)
	s.Run(Second)
	if n.Drops(DropTTL) != 1 {
		t.Errorf("ttl drops = %d", n.Drops(DropTTL))
	}
}

func TestFIFODeliveryOrder(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	var got []int
	n.RegisterFlow(1, 1, func(p *Packet) { got = append(got, p.Payload.(int)) })
	for i := 0; i < 10; i++ {
		n.Send(0, 1, 1, 1500, i)
	}
	s.Run(Second)
	if len(got) != 10 {
		t.Fatalf("received %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered on stable path: %v", got)
		}
	}
}

func TestSerializationSpacing(t *testing.T) {
	// Back-to-back packets on the same path must arrive at least one
	// serialization time apart (10 Mb/s, 1500 B => 1.2 ms).
	s, n, _ := testNet(t, DefaultConfig())
	var arrivals []Time
	n.RegisterFlow(1, 1, func(*Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 5; i++ {
		n.Send(0, 1, 1, 1500, nil)
	}
	s.Run(Second)
	if len(arrivals) != 5 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	wantGap := Seconds(1500 * 8 / 10e6)
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i] - arrivals[i-1]
		if gap < wantGap-Microsecond {
			t.Errorf("gap %d = %v, want >= %v", i, gap, wantGap)
		}
	}
}

func TestDuplicateFlowRegistrationPanics(t *testing.T) {
	_, n, _ := testNet(t, DefaultConfig())
	n.RegisterFlow(0, 1, func(*Packet) {})
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	n.RegisterFlow(0, 1, func(*Packet) {})
}

// TestGroundStationIndexChecked pins the one boundary where an integer from
// outside becomes a node id: every call that binds a flow, a handler or a
// timer to a station rejects an index that is not one, before the first
// packet. (Unchecked, Clock(-1) bound timers to the last satellite and
// Send(-1, 1, ...) was delivered with SrcGS -1.)
func TestGroundStationIndexChecked(t *testing.T) {
	_, n, topo := testNet(t, DefaultConfig())
	ng := topo.NumGS()
	cases := []struct {
		name string
		call func(gs int)
	}{
		{"Clock", func(gs int) { n.Clock(gs) }},
		{"RegisterFlow", func(gs int) { n.RegisterFlow(gs, 1, func(*Packet) {}) }},
		{"UnregisterFlow", func(gs int) { n.UnregisterFlow(gs, 1) }},
	}
	for _, c := range cases {
		for _, gs := range []int{-1, ng, topo.GSNode(0)} {
			want := fmt.Sprintf("sim: %s: ground station %d outside [0, %d)", c.name, gs, ng)
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s(%d): panic %v, want %q", c.name, gs, got, want)
					}
				}()
				c.call(gs)
			}()
		}
		c.call(ng - 1) // the last station is in range
	}
}

func TestUnregisterFlow(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	n.RegisterFlow(1, 1, func(*Packet) { t.Error("handler called after unregister") })
	n.UnregisterFlow(1, 1)
	n.Send(0, 1, 1, 1500, nil)
	s.Run(Second)
	if n.Drops(DropNoHandler) != 1 {
		t.Error("expected no-handler drop after unregister")
	}
}

func TestInFlightPacketsSurviveForwardingChange(t *testing.T) {
	// Loss-free handoff: packets sent under the old forwarding state are
	// delivered even if the state changes while they are in flight.
	s, n, topo := testNet(t, DefaultConfig())
	delivered := 0
	n.RegisterFlow(1, 1, func(*Packet) { delivered++ })
	if p, _ := topo.Snapshot(1).Path(0, 1); p == nil {
		t.Skip("pair disconnected at t=1 in mini constellation")
	}
	n.Send(0, 1, 1, 1500, nil)
	// Replace forwarding nearly immediately (well before the ~tens of ms
	// delivery completes).
	s.Schedule(Microsecond, func() {
		n.InstallForwarding(topo.Snapshot(1).ForwardingTable())
	})
	s.Run(Second)
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1", delivered)
	}
}

func TestTransmitHookObservesEveryHop(t *testing.T) {
	s, n, topo := testNet(t, DefaultConfig())
	var infos []TransmitInfo
	n.SetTransmitHook(func(ti TransmitInfo) { infos = append(infos, ti) })
	n.RegisterFlow(1, 1, func(*Packet) {})
	n.Send(0, 1, 1, 1500, nil)
	s.Run(Second)
	path, _ := topo.Snapshot(0).Path(0, 1)
	if len(infos) != len(path)-1 {
		t.Fatalf("observed %d transmissions, want %d", len(infos), len(path)-1)
	}
	for i, ti := range infos {
		if ti.From != path[i] || ti.To != path[i+1] {
			t.Errorf("hop %d: %d->%d, want %d->%d", i, ti.From, ti.To, path[i], path[i+1])
		}
		if ti.Arrive <= ti.Start {
			t.Errorf("hop %d: arrive %v <= start %v", i, ti.Arrive, ti.Start)
		}
	}
}

func TestQueueLen(t *testing.T) {
	s, n, _ := testNet(t, DefaultConfig())
	n.RegisterFlow(1, 1, func(*Packet) {})
	for i := 0; i < 10; i++ {
		n.Send(0, 1, 1, 1500, nil)
	}
	// Before the simulator runs, 1 is in transmission and 9 queued on the
	// source's GSL device.
	srcNode := n.Topo.GSNode(0)
	if got := n.QueueLen(srcNode, 0); got != 9 {
		t.Errorf("queue length = %d, want 9", got)
	}
	s.Run(Second)
	if got := n.QueueLen(srcNode, 0); got != 0 {
		t.Errorf("queue length after drain = %d", got)
	}
}

func TestSendWithoutForwardingPanics(t *testing.T) {
	topo := testTopo(t)
	n, err := NewNetwork(NewSimulator(), topo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	n.Send(0, 1, 1, 100, nil)
}

func TestDropReasonString(t *testing.T) {
	for r, want := range map[DropReason]string{
		DropQueue: "queue-full", DropNoRoute: "no-route",
		DropTTL: "ttl-exceeded", DropNoHandler: "no-handler",
		numDropReasons: "unknown",
	} {
		if got := r.String(); got != want {
			t.Errorf("String(%d) = %q", r, got)
		}
	}
}

func TestDeviceStats(t *testing.T) {
	s, n, topo := testNet(t, DefaultConfig())
	n.RegisterFlow(1, 1, func(*Packet) {})
	for i := 0; i < 10; i++ {
		n.Send(0, 1, 1, 1500, nil)
	}
	s.Run(Second)
	stats := n.DeviceStats()
	// One GSL device per node plus two ISL devices per satellite (4 per
	// sat shared pairwise = 4 entries per sat).
	wantDevs := topo.NumNodes() + 4*topo.NumSats()
	if len(stats) != wantDevs {
		t.Fatalf("devices = %d, want %d", len(stats), wantDevs)
	}
	var srcGSL *DeviceStats
	var totalTx uint64
	for i := range stats {
		st := &stats[i]
		if st.MaxQueue < 0 || st.TxBytes < st.TxPkts {
			t.Fatalf("implausible stats %+v", st)
		}
		totalTx += st.TxPkts
		if st.Node == topo.GSNode(0) && st.Peer == -1 {
			srcGSL = st
		}
	}
	if srcGSL == nil {
		t.Fatal("source GSL device missing")
	}
	if srcGSL.TxPkts != 10 {
		t.Errorf("source GSL sent %d packets, want 10", srcGSL.TxPkts)
	}
	if srcGSL.MaxQueue != 9 {
		t.Errorf("source GSL max queue = %d, want 9", srcGSL.MaxQueue)
	}
	if srcGSL.TxBytes != 15000 {
		t.Errorf("source GSL bytes = %d", srcGSL.TxBytes)
	}
	// Every hop shows up somewhere.
	path, _ := topo.Snapshot(0).Path(0, 1)
	if totalTx != uint64(10*(len(path)-1)) {
		t.Errorf("total transmissions = %d, want %d", totalTx, 10*(len(path)-1))
	}
}

// TestInstallForwardingReturnsDisplacedTable verifies the recycle-point
// contract: the first install displaces nothing, and each subsequent
// install hands back exactly the table it replaced.
func TestInstallForwardingReturnsDisplacedTable(t *testing.T) {
	topo := testTopo(t)
	s := NewSimulator()
	n, err := NewNetwork(s, topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := topo.Snapshot(0).ForwardingTable()
	b := topo.Snapshot(1).ForwardingTable()
	if prev := n.InstallForwarding(a); prev != nil {
		t.Errorf("first install displaced %v, want nil", prev)
	}
	if prev := n.InstallForwarding(b); prev != a {
		t.Errorf("second install displaced %p, want %p", prev, a)
	}
	if prev := n.InstallForwarding(a); prev != b {
		t.Errorf("third install displaced %p, want %p", prev, b)
	}
}
