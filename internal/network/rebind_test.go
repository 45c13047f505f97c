// Rebind tests: a warm Instance re-binds its cached nodes to a different
// core Program (network.Rebinder) instead of rebuilding them, and every
// run after a re-bind must be byte-identical to a freshly built instance
// running the same program — Stats, every node's Verdict, and the
// summarized Decision — on both engines, across program kinds, cycle
// lengths, repetition counts, modes, and recovery from aborted runs.
package network_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// rebindSeq draws a seeded sequence of core programs: testers at k 3..9
// with 1..3 repetitions in both modes, and edge detectors on real edges
// and on non-adjacent pairs. Some steps repeat the previous Program value,
// so the same-pointer Reset path is interleaved with re-binds.
func rebindSeq(g *graph.Graph, steps int) []network.Program {
	rng := rand.New(rand.NewSource(2024))
	edges := g.Edges()
	progs := make([]network.Program, 0, steps)
	for len(progs) < steps {
		if len(progs) > 0 && rng.Intn(6) == 0 {
			progs = append(progs, progs[len(progs)-1])
			continue
		}
		k := 3 + rng.Intn(7)
		mode := core.Mode(rng.Intn(2))
		if rng.Intn(3) > 0 {
			progs = append(progs, &core.Tester{K: k, Reps: 1 + rng.Intn(3), Mode: mode})
			continue
		}
		e := edges[rng.Intn(len(edges))]
		u, v := int64(e.U), int64(e.V)
		if rng.Intn(2) == 0 {
			// A non-adjacent pair: nobody seeds, nothing can be detected.
			for g.HasEdge(int(u), int(v)) || u == v {
				u, v = int64(rng.Intn(g.N())), int64(rng.Intn(g.N()))
			}
		}
		progs = append(progs, &core.EdgeDetector{K: k, U: u, V: v, Mode: mode})
	}
	return progs
}

func describe(p network.Program) string {
	switch p := p.(type) {
	case *core.Tester:
		return fmt.Sprintf("Tester{K:%d Reps:%d Mode:%d}", p.K, p.Reps, p.Mode)
	case *core.EdgeDetector:
		return fmt.Sprintf("EdgeDetector{K:%d U:%d V:%d Mode:%d}", p.K, p.U, p.V, p.Mode)
	}
	return fmt.Sprintf("%T", p)
}

// TestRebindMatchesFresh runs one warm instance per engine configuration
// through a random sequence of 60 core programs — with one cancelled and
// one panicking run injected by a FaultPlan part-way — and compares every
// completed run with a fresh instance running the same program and seed.
func TestRebindMatchesFresh(t *testing.T) {
	rng := xrand.New(31)
	g := graph.ConnectedGNM(36, 90, rng)
	progs := rebindSeq(g, 60)
	const cancelSeed, panicSeed = 1 << 40, 1<<40 + 1
	plan := &network.FaultPlan{
		Decide: func(seed uint64, n, rounds int) (network.FaultDecision, bool) {
			switch seed {
			case cancelSeed:
				return network.FaultDecision{Kind: network.FaultCancel, Round: 2, Node: 5}, true
			case panicSeed:
				return network.FaultDecision{Kind: network.FaultPanic, Round: 2, Node: 7}, true
			}
			return network.FaultDecision{}, false
		},
	}
	configs := []struct {
		name string
		opts network.InstanceOptions
	}{
		{"bsp-w1", network.InstanceOptions{Engine: network.EngineBSP, Workers: 1}},
		{"bsp-w2", network.InstanceOptions{Engine: network.EngineBSP, Workers: 2}},
		{"channels", network.InstanceOptions{Engine: network.EngineChannels}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			c, err := network.Compile(g, network.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opts := cfg.opts
			opts.Faults = plan
			warm, err := c.NewInstance(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer warm.Close()
			for i, p := range progs {
				seed := uint64(1000 + i)
				switch i {
				case 20, 40:
					// The aborted run leaves its nodes mid-state; the next
					// program must not inherit any of it.
					seed = cancelSeed
					if i == 40 {
						seed = panicSeed
					}
					_, err := warm.RunProgram(p, seed)
					var inj *network.ErrInjected
					if !errors.As(err, &inj) {
						t.Fatalf("step %d: want an injected fault, got %v", i, err)
					}
					continue
				}
				got, err := warm.RunProgram(p, seed)
				if err != nil {
					t.Fatalf("step %d %s: %v", i, describe(p), err)
				}
				fresh, err := c.NewInstance(network.InstanceOptions{Engine: cfg.opts.Engine, Workers: cfg.opts.Workers})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.RunProgram(p, seed)
				if err != nil {
					t.Fatalf("step %d %s (fresh): %v", i, describe(p), err)
				}
				assertSameRun(t, fmt.Sprintf("step %d %s", i, describe(p)), want, got)
				fresh.Close()
			}
		})
	}
}

// assertSameRun compares two runs' Stats, every node's Verdict (with the
// length of MaxSeqsPerRound checked explicitly, since it follows the
// program's ⌊k/2⌋), and the summarized Decision.
func assertSameRun(t *testing.T, what string, want, got *network.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("%s: stats differ\n got  %+v\n want %+v", what, got.Stats, want.Stats)
	}
	for v := range want.Outputs {
		wv, gv := want.Outputs[v].(*core.Verdict), got.Outputs[v].(*core.Verdict)
		if len(wv.Metrics.MaxSeqsPerRound) != len(gv.Metrics.MaxSeqsPerRound) {
			t.Fatalf("%s: vertex %d: len(MaxSeqsPerRound) = %d, fresh %d", what, v,
				len(gv.Metrics.MaxSeqsPerRound), len(wv.Metrics.MaxSeqsPerRound))
		}
		if !reflect.DeepEqual(wv, gv) {
			t.Fatalf("%s: vertex %d verdict differs\n got  %+v\n want %+v", what, v, gv, wv)
		}
	}
	wd, gd := core.Summarize(want.Outputs, want.IDs), core.Summarize(got.Outputs, got.IDs)
	if !reflect.DeepEqual(wd, gd) {
		t.Fatalf("%s: decision differs\n got  %+v\n want %+v", what, gd, wd)
	}
}

// TestRebindAllocFree: once warm, an instance alternating between three
// different core programs — with different round counts, ⌊k/2⌋ and node
// roles — re-binds its nodes and re-carves its stats rows without a single
// allocation per run, on both engines.
func TestRebindAllocFree(t *testing.T) {
	g := graph.RandomTree(64, xrand.New(5))
	e := g.Edges()[0]
	progs := []network.Program{
		&core.Tester{K: 5, Reps: 1},
		&core.Tester{K: 7, Reps: 2},
		&core.EdgeDetector{K: 5, U: int64(e.U), V: int64(e.V)},
	}
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			nw := newInstance(t, g, network.CompileOptions{}, network.InstanceOptions{Engine: engine})
			defer nw.Close()
			seed := uint64(0)
			cycle := func() {
				for _, p := range progs {
					seed++
					if _, err := nw.RunProgram(p, seed); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 3; i++ {
				cycle() // grow every arena, stats slab and metrics buffer once
			}
			if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
				t.Fatalf("alternating programs allocate %.1f times per %d runs; want 0", allocs, len(progs))
			}
		})
	}
}
