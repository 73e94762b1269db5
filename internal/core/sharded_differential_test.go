package core

import (
	"bytes"
	"math/rand"
	"testing"

	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/trace"
	"hypatia/internal/transport"
)

// shardedScenario is one randomized end-to-end run shape: a traffic mix
// over the four-city mini constellation plus the knobs that stress the
// sharded engine (update cadence, queue pressure, link loss).
type shardedScenario struct {
	policy   routing.GSLPolicy
	duration sim.Time
	interval sim.Time
	queue    int
	loss     bool
	pings    []pingSpec
	udps     []udpSpec
	tcps     []tcpSpec
}

type pingSpec struct {
	src, dst int
	interval sim.Time
	delay    sim.Time
}

type udpSpec struct {
	src, dst int
	rateBps  float64
	delay    sim.Time
}

type tcpSpec struct {
	src, dst int
	delay    sim.Time
}

// drawScenario derives every scenario parameter from the rng up front, so
// serial and sharded runs of the same seed are built identically.
func drawScenario(rng *rand.Rand, policy routing.GSLPolicy, maxDur sim.Time) shardedScenario {
	sc := shardedScenario{
		policy:   policy,
		duration: 400*sim.Millisecond + sim.Time(rng.Intn(9))*100*sim.Millisecond,
		interval: []sim.Time{50, 100, 200}[rng.Intn(3)] * sim.Millisecond,
		loss:     rng.Intn(2) == 0,
	}
	if sc.duration > maxDur {
		sc.duration = maxDur
	}
	if rng.Intn(2) == 0 {
		sc.queue = 5 // force queue drops under the UDP/TCP load
	}
	pair := func() (int, int) {
		src := rng.Intn(4)
		dst := rng.Intn(3)
		if dst >= src {
			dst++
		}
		return src, dst
	}
	usDelay := func() sim.Time { return sim.Time(rng.Intn(30_000)) * sim.Microsecond }
	for i := 1 + rng.Intn(2); i > 0; i-- {
		src, dst := pair()
		sc.pings = append(sc.pings, pingSpec{
			src: src, dst: dst,
			interval: sim.Time(1+rng.Intn(20)) * sim.Millisecond,
			delay:    usDelay(),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		src, dst := pair()
		sc.udps = append(sc.udps, udpSpec{
			src: src, dst: dst,
			rateBps: 0.5e6 + rng.Float64()*4.5e6,
			delay:   usDelay(),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		src, dst := pair()
		sc.tcps = append(sc.tcps, tcpSpec{src: src, dst: dst, delay: usDelay()})
	}
	return sc
}

// shardedOutcome is everything a run observably produces: the full packet
// trace plus the network's end-of-run counters and the number of forwarding
// states installed. Processed() is deliberately absent — sharded runs
// process extra per-shard copies of install events.
type shardedOutcome struct {
	trace     []byte
	delivered uint64
	drops     map[sim.DropReason]uint64
	updates   int
}

// executeScenario wires the scenario into a Run with the given shard count
// (0 = serial) and returns its observable outcome.
func executeScenario(t *testing.T, sc shardedScenario, shards int) shardedOutcome {
	t.Helper()
	net := sim.DefaultConfig()
	if sc.queue > 0 {
		net.QueuePackets = sc.queue
	}
	if sc.loss {
		net.LossModel = func(from, to int, at sim.Time) bool {
			return (uint64(from)*2654435761+uint64(to)*40503+uint64(at))%131 == 0
		}
	}
	run, err := NewRun(RunConfig{
		Constellation:  miniConfig(),
		GroundStations: fourCities(t),
		GSLPolicy:      sc.policy,
		Duration:       sc.duration,
		UpdateInterval: sc.interval,
		Net:            net,
		Shards:         shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := trace.New(&buf, nil)
	tr.Attach(run.Net)
	for _, p := range sc.pings {
		transport.NewPinger(run.Net, run.Flows, p.src, p.dst,
			transport.PingConfig{Interval: p.interval}).StartAfter(p.delay)
	}
	for _, u := range sc.udps {
		transport.NewUDPFlow(run.Net, run.Flows, u.src, u.dst,
			transport.UDPConfig{RateBps: u.rateBps}).StartAfter(u.delay)
	}
	for _, f := range sc.tcps {
		transport.NewTCPFlow(run.Net, run.Flows, f.src, f.dst,
			transport.TCPConfig{}).StartAfter(f.delay)
	}
	run.Execute()
	out := shardedOutcome{
		delivered: run.Net.Delivered(),
		drops:     map[sim.DropReason]uint64{},
		updates:   run.UpdatesInstalled(),
	}
	if want := 1 + int(sc.duration/sc.interval); out.updates != want {
		t.Errorf("shards=%d: %d forwarding states installed, want %d", shards, out.updates, want)
	}
	// Every install up to the duration has run, so executing again is a
	// no-op on either loop.
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	traced := buf.Len()
	run.Execute()
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	if run.UpdatesInstalled() != out.updates || run.Net.Delivered() != out.delivered || buf.Len() != traced {
		t.Errorf("shards=%d: second Execute changed the run: %d installs, %d delivered, %d trace bytes (were %d, %d, %d)",
			shards, run.UpdatesInstalled(), run.Net.Delivered(), buf.Len(), out.updates, out.delivered, traced)
	}
	out.trace = buf.Bytes()
	for r := sim.DropQueue; r <= sim.DropLink; r++ {
		out.drops[r] = run.Net.Drops(r)
	}
	return out
}

// compareOutcomes requires byte-identical traces and identical counters.
func compareOutcomes(t *testing.T, label string, got, want shardedOutcome) {
	t.Helper()
	if !bytes.Equal(got.trace, want.trace) {
		i := 0
		for i < len(got.trace) && i < len(want.trace) && got.trace[i] == want.trace[i] {
			i++
		}
		lo, hi := i-80, i+80
		if lo < 0 {
			lo = 0
		}
		ctx := func(b []byte) string {
			h := hi
			if h > len(b) {
				h = len(b)
			}
			if lo >= h {
				return ""
			}
			return string(b[lo:h])
		}
		t.Errorf("%s: trace diverges at byte %d (%d vs %d bytes)\n got: …%s…\nwant: …%s…",
			label, i, len(got.trace), len(want.trace), ctx(got.trace), ctx(want.trace))
	}
	if got.delivered != want.delivered {
		t.Errorf("%s: delivered = %d, want %d", label, got.delivered, want.delivered)
	}
	if got.updates != want.updates {
		t.Errorf("%s: forwarding states installed = %d, want %d", label, got.updates, want.updates)
	}
	for r := sim.DropQueue; r <= sim.DropLink; r++ {
		if got.drops[r] != want.drops[r] {
			t.Errorf("%s: drops[%v] = %d, want %d", label, r, got.drops[r], want.drops[r])
		}
	}
}

// TestShardedDifferential is the acceptance harness for the sharded engine:
// randomized end-to-end scenarios — both GSL policies, mixed ping/UDP/TCP
// traffic, randomized start offsets, update cadences, queue pressure, and
// link loss — each run serially and at several shard counts, every sharded
// run required to reproduce the serial packet trace byte for byte.
func TestShardedDifferential(t *testing.T) {
	seeds := 13
	if testing.Short() {
		seeds = 3
	}
	comparisons, traffic := 0, uint64(0)
	for _, policy := range []routing.GSLPolicy{routing.GSLFree, routing.GSLNearestOnly} {
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*int(policy) + seed)))
			sc := drawScenario(rng, policy, 1200*sim.Millisecond)
			want := executeScenario(t, sc, 0)
			traffic += want.delivered
			for _, shards := range []int{2, 3, 5} {
				got := executeScenario(t, sc, shards)
				compareOutcomes(t, labelFor(policy, seed, shards), got, want)
				comparisons++
				if t.Failed() {
					t.FailNow() // one full divergence dump is enough
				}
			}
		}
	}
	if comparisons < 50 && !testing.Short() {
		t.Fatalf("only %d serial-vs-sharded comparisons run; the acceptance bar is 50", comparisons)
	}
	if traffic == 0 {
		t.Fatal("scenarios delivered no traffic; the differential proved nothing")
	}
	t.Logf("%d comparisons across randomized scenarios, %d packets delivered in serial references", comparisons, traffic)
}

func labelFor(policy routing.GSLPolicy, seed, shards int) string {
	p := "free"
	if policy == routing.GSLNearestOnly {
		p = "nearest"
	}
	return "policy=" + p + " seed=" + string(rune('0'+seed/10)) + string(rune('0'+seed%10)) + " shards=" + string(rune('0'+shards))
}

// FuzzShardedHandoffs lets the fuzzer pick the scenario shape and shard
// count. Every input replays a full serial-vs-sharded comparison over a
// short run, so any counterexample is a real byte-level trace divergence —
// a broken lookahead window, a misordered handoff, or a journal replay bug.
func FuzzShardedHandoffs(f *testing.F) {
	f.Add(int64(1), uint8(0), false, uint8(0))
	f.Add(int64(7), uint8(2), true, uint8(3))
	f.Add(int64(42), uint8(4), false, uint8(7))
	f.Add(int64(9999), uint8(1), true, uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, shardSel uint8, nearest bool, mix uint8) {
		policy := routing.GSLFree
		if nearest {
			policy = routing.GSLNearestOnly
		}
		rng := rand.New(rand.NewSource(seed))
		sc := drawScenario(rng, policy, 500*sim.Millisecond)
		// mix prunes flow classes so the fuzzer can isolate interactions.
		if mix&1 != 0 {
			sc.udps = nil
		}
		if mix&2 != 0 {
			sc.tcps = nil
		}
		if mix&4 != 0 && len(sc.pings) > 1 {
			sc.pings = sc.pings[:1]
		}
		shards := 2 + int(shardSel)%5
		want := executeScenario(t, sc, 0)
		got := executeScenario(t, sc, shards)
		compareOutcomes(t, "fuzz", got, want)
	})
}
