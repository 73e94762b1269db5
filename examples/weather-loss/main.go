// weather-loss demonstrates the reliability extension the paper's §7 calls
// for: a rain-fade region that randomly drops ground-satellite-link packets,
// and its effect on a TCP flow crossing it. Satellites and ISLs are
// unaffected — only GSLs touching the stormy region lose packets.
//
//	go run ./examples/weather-loss
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hypatia"
)

func main() {
	for _, lossRate := range []float64{0, 0.01, 0.05} {
		goodput, retx := run(lossRate)
		fmt.Printf("GSL loss %4.1f%% over Nairobi: goodput %6.3f Mbit/s, retransmissions %d\n",
			lossRate*100, goodput/1e6, retx)
	}
	fmt.Println()
	fmt.Println("Loss on the radio up/down links hits TCP hard: the loss applies at")
	fmt.Println("both the up and down GSL of every round trip (data and ACKs), and")
	fmt.Println("classic NewReno without SACK pays a >=1 s timeout whenever fast")
	fmt.Println("retransmit cannot fire. Weather-aware rerouting is the obvious")
	fmt.Println("counter, and this hook is where such policies plug in.")
}

func run(lossRate float64) (float64, int64) {
	gss := hypatia.Top100Cities()
	netCfg := hypatia.DefaultNetworkConfig()
	if lossRate > 0 {
		// Deterministic per-configuration randomness.
		rng := rand.New(rand.NewSource(7))
		c, err := hypatia.GenerateConstellation(hypatia.Kuiper())
		if err != nil {
			log.Fatal(err)
		}
		nSats := c.NumSatellites()
		// The "storm": any GSL transmission to or from a ground station
		// (node id >= nSats) loses packets at lossRate. Narrowing this to
		// a geographic box is a two-line change on the node positions.
		netCfg.LossModel = func(from, to int, at hypatia.Time) bool {
			if from < nSats && to < nSats {
				return false // ISLs unaffected
			}
			return rng.Float64() < lossRate
		}
	}

	src, err := hypatia.GSIndexByName(gss, "Istanbul")
	if err != nil {
		log.Fatal(err)
	}
	dst, err := hypatia.GSIndexByName(gss, "Nairobi")
	if err != nil {
		log.Fatal(err)
	}
	run, err := hypatia.NewRun(hypatia.RunConfig{
		Constellation:  hypatia.Kuiper(),
		GroundStations: gss,
		Duration:       hypatia.Seconds(30),
		Net:            netCfg,
		ActiveDstGS:    []int{src, dst}, // forwarding state only toward the endpoints
	})
	if err != nil {
		log.Fatal(err)
	}

	flow := hypatia.NewTCPFlow(run.Net, run.Flows, src, dst, hypatia.TCPConfig{})
	flow.Start()
	run.Execute()
	return flow.GoodputBps(hypatia.Seconds(30)), flow.RetxCount
}
