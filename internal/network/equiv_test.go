// Equivalence, error-semantics, and allocation tests for the single-source
// engine loops. Run is a single-use Instance over the same loop, so every
// assertion that a reused Instance matches Run is an assertion that the
// warm, node-cached path of the one loop matches its own single-use path.
package network_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

var engines = []network.Engine{network.EngineBSP, network.EngineChannels}

// newInstance compiles g and attaches one instance, failing tb on error.
// The caller closes the instance.
func newInstance(tb testing.TB, g *graph.Graph, copts network.CompileOptions, iopts network.InstanceOptions) *network.Instance {
	tb.Helper()
	c, err := network.Compile(g, copts)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := c.NewInstance(iopts)
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// testGraphs returns the cross-engine equivalence fixtures: an accepting
// tree, a rejecting ε-far instance (exercises witness state), a random
// G(n,m), and a dense bipartite graph (heavy Phase-2 fan-in).
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := xrand.New(42)
	far, _ := graph.FarFromCkFree(40, 5, 0.05, rng)
	return map[string]*graph.Graph{
		"tree":  graph.RandomTree(30, rng),
		"far":   far,
		"gnm":   graph.ConnectedGNM(48, 4*48, rng),
		"K6x6":  graph.CompleteBipartite(6, 6),
		"cycle": graph.Cycle(9),
	}
}

// TestRunProgramMatchesCongest locks the reuse contract: a reused
// Instance produces results byte-identical to a fresh network.Run for
// every graph, engine, program, and seed — including runs late in the
// Instance's life, after many node reuses with different seeds.
func TestRunProgramMatchesCongest(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, engine := range engines {
			t.Run(name+"/"+string(engine), func(t *testing.T) {
				nw := newInstance(t, g, network.CompileOptions{}, network.InstanceOptions{Engine: engine})
				defer nw.Close()
				// One Program value reused across seeds: the node-cache path.
				prog := &core.Tester{K: 5, Reps: 2}
				for seed := uint64(0); seed < 6; seed++ {
					want, err := network.Run(engine, g, &core.Tester{K: 5, Reps: 2}, network.Config{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					got, err := nw.RunProgram(prog, seed)
					if err != nil {
						t.Fatal(err)
					}
					assertResultsEqual(t, seed, want, got)
				}
				// Even k takes the sent-arena detect path; also a program
				// switch on a live network (cache invalidation).
				prog6 := &core.Tester{K: 6, Reps: 2}
				want, err := network.Run(engine, g, &core.Tester{K: 6, Reps: 2}, network.Config{Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				got, err := nw.RunProgram(prog6, 11)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, 11, want, got)
			})
		}
	}
}

// TestRunProgramMatchesCongestDetector covers the deterministic Phase-2
// program and a non-trivial ID assignment.
func TestRunProgramMatchesCongestDetector(t *testing.T) {
	rng := xrand.New(7)
	g := graph.ConnectedGNM(32, 96, rng)
	e := g.Edges()[3]
	ids := make([]network.ID, g.N())
	for v := range ids {
		ids[v] = network.ID(1000 + 3*v) // arbitrary distinct assignment
	}
	prog := &core.EdgeDetector{K: 6, U: ids[e.U], V: ids[e.V]}
	for _, engine := range engines {
		nw := newInstance(t, g, network.CompileOptions{IDs: ids}, network.InstanceOptions{Engine: engine})
		for seed := uint64(0); seed < 3; seed++ {
			want, err := network.Run(engine, g, &core.EdgeDetector{K: 6, U: ids[e.U], V: ids[e.V]},
				network.Config{Seed: seed, IDs: ids})
			if err != nil {
				t.Fatal(err)
			}
			got, err := nw.RunProgram(prog, seed)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, seed, want, got)
		}
		nw.Close()
	}
}

// TestRunProgramSingleWorker pins equivalence for Workers: 1, the
// configuration the sweep scheduler uses when it shards networks across
// cores itself.
func TestRunProgramSingleWorker(t *testing.T) {
	rng := xrand.New(9)
	g := graph.ConnectedGNM(40, 160, rng)
	nw := newInstance(t, g, network.CompileOptions{}, network.InstanceOptions{Workers: 1})
	defer nw.Close()
	prog := &core.Tester{K: 7, Reps: 2}
	for seed := uint64(0); seed < 4; seed++ {
		want, err := network.Run(network.EngineBSP, g, &core.Tester{K: 7, Reps: 2}, network.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := nw.RunProgram(prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, seed, want, got)
	}
}

func assertResultsEqual(t *testing.T, seed uint64, want, got *network.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.IDs, got.IDs) {
		t.Fatalf("seed %d: ID assignment differs", seed)
	}
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		t.Fatalf("seed %d: outputs differ\n got  %v\n want %v", seed, got.Outputs, want.Outputs)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("seed %d: stats differ\n got  %+v\n want %+v", seed, got.Stats, want.Stats)
	}
}

// TestNetworkRunAllocFree is the allocation regression for the tentpole:
// once an Instance and its cached nodes are warm, repeated RunProgram calls
// with the same Program value must not allocate at all — on EITHER engine.
// For the channels engine this also locks the persistent-goroutine design:
// a per-run goroutine spawn would show up as at least one allocation per
// node. The graph is Ck-free so no run ever assembles a witness (witness
// assembly is allowed to allocate — rejection ends a workload).
func TestNetworkRunAllocFree(t *testing.T) {
	rng := xrand.New(5)
	g := graph.RandomTree(64, rng)
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			nw := newInstance(t, g, network.CompileOptions{}, network.InstanceOptions{Engine: engine})
			defer nw.Close()
			prog := &core.Tester{K: 5, Reps: 4}
			seed := uint64(0)
			for ; seed < 5; seed++ { // warm arenas, rank buffers, and the node cache
				if _, err := nw.RunProgram(prog, seed); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				seed++
				if _, err := nw.RunProgram(prog, seed); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("steady-state RunProgram allocates %.1f times; want 0", allocs)
			}
		})
	}
}

// TestCloseWithoutRun: an Instance built and Closed without ever running a
// program must tear down cleanly — the channel engine's parked goroutines
// may not have been scheduled yet when Close nils the start channels (a
// -race catch for the engine teardown path).
func TestCloseWithoutRun(t *testing.T) {
	for _, engine := range engines {
		for i := 0; i < 20; i++ {
			nw := newInstance(t, graph.Cycle(48), network.CompileOptions{}, network.InstanceOptions{Engine: engine})
			nw.Close()
		}
	}
}

// TestChannelsRunSpawnsNoGoroutines pins the other half of the tentpole
// contract directly: the channels engine's node goroutines are spawned by
// NewInstance and parked between runs, so RunProgram on a warm Instance leaves the
// process goroutine count unchanged, and Close releases all of them.
func TestChannelsRunSpawnsNoGoroutines(t *testing.T) {
	// Goroutines from earlier tests' Closed networks exit asynchronously,
	// so absolute counts are noisy; the assertions below are one-sided
	// (spawned at least n on NewInstance, never grew across runs, shrank by at
	// least n after Close). The baseline is taken only once those exits
	// have drained, or they would cancel out NewInstance's spawns.
	g := graph.Cycle(32)
	before := settledGoroutines()
	nw := newInstance(t, g, network.CompileOptions{}, network.InstanceOptions{Engine: network.EngineChannels})
	after := runtime.NumGoroutine()
	if after < before+g.N() {
		t.Fatalf("New spawned %d goroutines; want at least %d (one per node)", after-before, g.N())
	}
	prog := &core.Tester{K: 5, Reps: 2}
	for seed := uint64(0); seed < 8; seed++ {
		if _, err := nw.RunProgram(prog, seed); err != nil {
			t.Fatal(err)
		}
		// Allow slack for unrelated runtime goroutines (GC workers etc.);
		// a per-run engine spawn would add g.N() at once, and a leak of
		// parked goroutines would accumulate across the 8 runs. The
		// zero-allocation lock in TestNetworkRunAllocFree catches even
		// transient per-run spawns (a goroutine closure allocates).
		if now := runtime.NumGoroutine(); now > after+g.N()/2 {
			t.Fatalf("RunProgram grew the goroutine count: %d -> %d", after, now)
		}
	}
	peak := runtime.NumGoroutine()
	nw.Close()
	// The parked goroutines exit asynchronously on Close; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= peak-g.N() {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("Close left goroutines behind: %d, had %d before Close", runtime.NumGoroutine(), peak)
}

// settledGoroutines returns the goroutine count once it has stopped
// falling: goroutines of networks that earlier tests closed exit
// asynchronously, and a baseline sampled while they drain is too high.
// It waits for the count to hold for several consecutive samples,
// giving up (and returning the last sample) after a few seconds.
func settledGoroutines() int {
	const stable = 20
	last, held := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); held < stable && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		now := runtime.NumGoroutine()
		if now < last {
			held = 0
		} else {
			held++
		}
		last = now
	}
	return last
}
