// Quickstart: simulate ping measurements between two cities over Amazon
// Kuiper's first shell and print how the RTT moves as the satellites do.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hypatia"
)

func main() {
	gss := hypatia.Top100Cities()
	src, err := hypatia.GSIndexByName(gss, "Rio de Janeiro")
	if err != nil {
		log.Fatal(err)
	}
	dst, err := hypatia.GSIndexByName(gss, "Saint Petersburg")
	if err != nil {
		log.Fatal(err)
	}

	// Build a 20-second run over Kuiper K1 with the built-in 100-city
	// ground-station set. Forwarding state is recomputed every 100 ms, the
	// paper's default; computing it only toward the two endpoints keeps the
	// run fast.
	run, err := hypatia.NewRun(hypatia.RunConfig{
		Constellation:  hypatia.Kuiper(),
		GroundStations: gss,
		Duration:       hypatia.Seconds(20),
		ActiveDstGS:    []int{src, dst},
	})
	if err != nil {
		log.Fatal(err)
	}

	ping := hypatia.NewPinger(run.Net, run.Flows, src, dst, hypatia.PingConfig{
		Interval: 10 * hypatia.Millisecond,
	})
	ping.Start()
	run.Execute()

	fmt.Println("Rio de Janeiro -> Saint Petersburg over Kuiper K1, 20 s:")
	lost := 0
	var minRTT, maxRTT float64
	for _, r := range ping.Results() {
		if !r.Replied {
			lost++
			continue
		}
		rtt := r.RTT.Seconds()
		if minRTT == 0 || rtt < minRTT {
			minRTT = rtt
		}
		if rtt > maxRTT {
			maxRTT = rtt
		}
	}
	fmt.Printf("  pings sent: %d, unanswered: %d\n", len(ping.Results()), lost)
	fmt.Printf("  RTT range: %.1f ms .. %.1f ms\n", minRTT*1e3, maxRTT*1e3)
	for i, r := range ping.Results() {
		if i%200 == 0 && r.Replied {
			fmt.Printf("  t=%5.1fs  rtt=%6.1f ms\n", r.SentAt.Seconds(), r.RTT.Seconds()*1e3)
		}
	}
}
