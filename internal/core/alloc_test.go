package core

import (
	"testing"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// Allocation regression: once a tester node's buffers are warm, a full
// repetition (Phase-1 rank round plus every Phase-2 round) must perform
// zero heap allocations on every node. The test drives the nodes through a
// minimal hand-rolled lockstep loop — no engine, no per-run setup — so the
// measurement isolates exactly the steady-state message path that the
// zero-allocation rework pays for.
func TestTesterSteadyStateRoundAllocFree(t *testing.T) {
	// C6 plus the chord {0,3}: cycles of length 6 and 4 but no C5, so k=5
	// generates full two-phase traffic without ever assembling a witness
	// (witness assembly is allowed to allocate — rejection ends a run).
	b := graph.NewBuilder(6)
	b.AddCycle(0, 1, 2, 3, 4, 5)
	b.AddEdge(0, 3)
	g := b.Build()

	prog := &Tester{K: 5, Reps: 1 << 20}
	n := g.N()
	nodes := make([]network.Node, n)
	nbr := make([][]network.ID, n)
	for v := 0; v < n; v++ {
		ns := g.Neighbors(v)
		nbr[v] = make([]network.ID, len(ns))
		for p, w := range ns {
			nbr[v][p] = network.ID(w)
		}
		nodes[v] = prog.NewNode(network.NodeInfo{
			ID: network.ID(v), N: n, NeighborIDs: nbr[v],
			Rand: xrand.Stream(7, uint64(v)),
		})
	}
	// revPort[v][p]: the port of v on the neighbor reached via v's port p.
	revPort := make([][]int, n)
	for v := 0; v < n; v++ {
		revPort[v] = make([]int, len(nbr[v]))
		for p, w := range nbr[v] {
			for q, x := range nbr[w] {
				if x == network.ID(v) {
					revPort[v][p] = q
				}
			}
		}
	}
	out := make([][][]byte, n)
	in := make([][][]byte, n)
	for v := 0; v < n; v++ {
		out[v] = make([][]byte, len(nbr[v]))
		in[v] = make([][]byte, len(nbr[v]))
	}

	round := 0
	step := func() {
		round++
		for v := 0; v < n; v++ {
			for p := range out[v] {
				out[v][p] = nil
			}
			nodes[v].Send(round, out[v])
		}
		for v := 0; v < n; v++ {
			for p := range out[v] {
				in[nbr[v][p]][revPort[v][p]] = out[v][p]
			}
		}
		for v := 0; v < n; v++ {
			nodes[v].Receive(round, in[v])
			for p := range in[v] {
				in[v][p] = nil
			}
		}
	}

	per := prog.RoundsPerRep()
	for i := 0; i < 5*per; i++ {
		step() // warm every buffer through five repetitions
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < per; i++ {
			step()
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state repetition allocates %.1f times; want 0", allocs)
	}
}
