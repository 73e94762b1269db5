// congestion-control reproduces the paper's §4.2 finding in miniature:
// on an LEO path whose RTT changes as satellites move, loss-based TCP
// (NewReno) fills queues while delay-based TCP (Vegas) can misread a path
// change as congestion — both without any competing traffic.
//
//	go run ./examples/congestion-control
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
	for _, alg := range []hypatia.CCAlgorithm{hypatia.NewReno, hypatia.Vegas, hypatia.BBR} {
		run, err := hypatia.NewRun(hypatia.RunConfig{
			Constellation:  hypatia.Kuiper(),
			GroundStations: gss,
			Duration:       hypatia.Seconds(60),
			ActiveDstGS:    []int{src, dst}, // forwarding state only toward the endpoints
		})
		if err != nil {
			log.Fatal(err)
		}

		flow := hypatia.NewTCPFlow(run.Net, run.Flows, src, dst, hypatia.TCPConfig{
			Algorithm:  alg,
			RecordLogs: true, // the RTT range and cwnd p95 below read the logs
		})
		flow.Start()
		run.Execute()

		fmt.Printf("%s, Rio de Janeiro -> Saint Petersburg, 60 s alone on the network:\n", alg)
		fmt.Printf("  goodput: %6.3f Mbit/s\n", flow.GoodputBps(hypatia.Seconds(60))/1e6)
		fmt.Printf("  per-packet RTT: %.1f .. %.1f ms\n",
			flow.RTTLog.Min()*1e3, flow.RTTLog.Max()*1e3)
		fmt.Printf("  cwnd p95: %.0f packets, fast retransmits: %d, timeouts: %d\n",
			flow.CwndLog.Percentile(0.95), flow.FastRetxCount, flow.TimeoutCount)
	}
	fmt.Println()
	fmt.Println("NewReno keeps the bottleneck queue full (RTT far above the propagation")
	fmt.Println("floor); Vegas holds RTT near the floor but backs off when satellite")
	fmt.Println("motion lengthens the path — the paper's congestion-control takeaway.")
	fmt.Println("BBR, the algorithm the paper asks to see evaluated, paces at the")
	fmt.Println("estimated bottleneck rate and re-probes its RTT floor every 10 s,")
	fmt.Println("so path changes age out of its model.")
}
