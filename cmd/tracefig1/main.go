// Command tracefig1 prints the executable version of the paper's Figure 1:
// the round-by-round messages of Algorithm 1 detecting the C5 (u,x,z,y,v)
// through the edge {u,v}, on the exact 7-edge graph drawn in the paper.
package main

import (
	"fmt"
	"os"

	"cycledetect/internal/bench"
	"cycledetect/internal/core"
	"cycledetect/internal/network"
	"cycledetect/internal/trace"
)

func main() {
	g := bench.Fig1Graph()
	fmt.Println("Figure 1 graph (u=0, v=1, x=2, y=3, z=4):")
	for _, e := range g.Edges() {
		fmt.Printf("  %v\n", e)
	}
	fmt.Println()

	log := &trace.Log{}
	prog := &core.EdgeDetector{K: 5, U: 0, V: 1, Trace: log}
	res, err := network.Run(network.EngineBSP, g, prog, network.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracefig1:", err)
		os.Exit(1)
	}
	fmt.Print(log.Format())

	dec := core.Summarize(res.Outputs, res.IDs)
	fmt.Println()
	if dec.Reject {
		fmt.Printf("node(s) %v reject: witness C5 = %v\n", dec.RejectingIDs, dec.Witness)
	} else {
		fmt.Println("ERROR: the Figure-1 cycle was not detected")
		os.Exit(1)
	}
}
