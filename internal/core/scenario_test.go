package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hypatia/internal/routing"
	"hypatia/internal/sim"
	"hypatia/internal/trace"
	"hypatia/internal/transport"
)

// scenario is one randomized end-to-end run shape: a traffic mix over the
// four-city mini constellation plus the knobs that stress the event loop
// (update cadence, queue pressure, link loss).
type scenario struct {
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
// every run of the same seed is built identically.
func drawScenario(rng *rand.Rand, policy routing.GSLPolicy, maxDur sim.Time) scenario {
	sc := scenario{
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

// outcome is everything a run observably produces: the full packet trace
// plus the network's end-of-run counters and the number of forwarding states
// installed. Processed() is deliberately absent: it counts engine events,
// not simulated outcomes.
type outcome struct {
	trace     []byte
	delivered uint64
	drops     map[sim.DropReason]uint64
	updates   int
}

// executeScenario wires the scenario into a Run, executes it, checks the
// install count and that a second Execute changes nothing, and returns its
// observable outcome.
func executeScenario(t *testing.T, sc scenario) outcome {
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
	out := outcome{
		delivered: run.Net.Delivered(),
		drops:     map[sim.DropReason]uint64{},
		updates:   run.UpdatesInstalled(),
	}
	if want := 1 + int(sc.duration/sc.interval); out.updates != want {
		t.Errorf("%d forwarding states installed, want %d", out.updates, want)
	}
	// Every install up to the duration has run, so executing again is a
	// no-op.
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	traced := buf.Len()
	run.Execute()
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	if run.UpdatesInstalled() != out.updates || run.Net.Delivered() != out.delivered || buf.Len() != traced {
		t.Errorf("second Execute changed the run: %d installs, %d delivered, %d trace bytes (were %d, %d, %d)",
			run.UpdatesInstalled(), run.Net.Delivered(), buf.Len(), out.updates, out.delivered, traced)
	}
	out.trace = buf.Bytes()
	for r := sim.DropQueue; r <= sim.DropLink; r++ {
		out.drops[r] = run.Net.Drops(r)
	}
	return out
}

// compareOutcomes requires byte-identical traces and identical counters.
func compareOutcomes(t *testing.T, label string, got, want outcome) {
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

// TestRandomScenariosReplay runs randomized end-to-end scenarios — both GSL
// policies, mixed ping/UDP/TCP traffic, randomized start offsets, update
// cadences, queue pressure and deterministic link loss — twice each, and
// requires the second run to reproduce the first's packet trace byte for
// byte. executeScenario checks each run's install count and that executing
// it again changes nothing.
func TestRandomScenariosReplay(t *testing.T) {
	seeds := 13
	if testing.Short() {
		seeds = 3
	}
	traffic := uint64(0)
	for _, policy := range []routing.GSLPolicy{routing.GSLFree, routing.GSLNearestOnly} {
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(1000*int(policy) + seed)))
			sc := drawScenario(rng, policy, 1200*sim.Millisecond)
			want := executeScenario(t, sc)
			traffic += want.delivered
			compareOutcomes(t, labelFor(policy, seed), executeScenario(t, sc), want)
			if t.Failed() {
				t.FailNow() // one full divergence dump is enough
			}
		}
	}
	if traffic == 0 {
		t.Fatal("scenarios delivered no traffic; the replay proved nothing")
	}
}

func labelFor(policy routing.GSLPolicy, seed int) string {
	p := "free"
	if policy == routing.GSLNearestOnly {
		p = "nearest"
	}
	return fmt.Sprintf("policy=%s seed=%d", p, seed)
}
