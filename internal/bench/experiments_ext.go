package bench

import (
	"fmt"
	"math"
	"strings"

	"cycledetect/internal/central"
	"cycledetect/internal/combin"
	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/trace"
	"cycledetect/internal/xrand"
)

// Fig1Graph builds the graph of the paper's Figure 1: the C5
// (u, x, z, y, v) through the edge {u, v}, plus the crossing edges {u, y}
// and {v, x} that make both x and y receive both endpoint IDs in round 1 —
// the configuration motivating the careful sequence selection of §3.2.
// Vertices: u=0, v=1, x=2, y=3, z=4.
func Fig1Graph() *graph.Graph {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1) // {u,v}
	b.AddEdge(0, 2) // {u,x}
	b.AddEdge(1, 3) // {v,y}
	b.AddEdge(2, 4) // {x,z}
	b.AddEdge(3, 4) // {y,z}
	b.AddEdge(0, 3) // {u,y}
	b.AddEdge(1, 2) // {v,x}
	return b.Build()
}

// RunE7 reproduces Figure 1 as an executable trace: detecting the C5
// through {u,v}; node z (ID 4) must reject at round 2 = ⌊5/2⌋.
func RunE7(cfg Config) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Figure 1 walkthrough: C5 through {u,v}",
		Claim:  "node z detects the cycle (u,x,z,y,v) at round ⌊k/2⌋ = 2",
		Header: []string{"round", "node", "event", "detail"},
	}
	g := Fig1Graph()
	log := &trace.Log{}
	prog := &core.EdgeDetector{K: 5, U: 0, V: 1, Trace: log}
	dec, _ := cfg.run(g, prog, cfg.Seed)
	for _, ev := range log.Events() {
		t.AddRow(fmt.Sprint(ev.Round), fmt.Sprint(ev.Node), ev.Kind, ev.Text)
	}
	zRejected := false
	for _, id := range dec.RejectingIDs {
		if id == 4 {
			zRejected = true
		}
	}
	if !dec.Reject || !zRejected {
		t.Violations++
	}
	t.Note("witness cycle: %v (IDs: u=0 v=1 x=2 y=3 z=4)", dec.Witness)
	return t
}

// RunE8 is the pruning ablation behind Figure 2 / §3.2: on K_{d,d}, naive
// append-and-forward sends Θ(d) sequences per message while Algorithm 1
// stays below the k-dependent Lemma-3 constant, at no loss of detection.
func RunE8(cfg Config) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Pruning ablation: naive vs Algorithm 1 on K_{d,d}",
		Claim:  "pruned messages are O_k(1) sequences; naive grows with the graph",
		Header: []string{"d", "k", "naive maxseqs", "naive maxbits", "pruned maxseqs", "pruned maxbits", "bound", "both detect"},
	}
	ds := []int{4, 8, 16, 32}
	if cfg.Quick {
		ds = []int{4, 8}
	}
	k := 6
	bound := uint64(0)
	for tt := 1; tt <= k/2; tt++ {
		if b := combin.PaperMessageBound(k, tt); b > bound {
			bound = b
		}
	}
	prevNaive := 0
	for _, d := range ds {
		g := graph.CompleteBipartite(d, d)
		e := graph.Edge{U: 0, V: d}
		naive := &core.EdgeDetector{K: k, U: int64(e.U), V: int64(e.V), Mode: core.ModeNaive}
		pruned := &core.EdgeDetector{K: k, U: int64(e.U), V: int64(e.V)}
		dn, sn := cfg.run(g, naive, cfg.Seed)
		dp, sp := cfg.run(g, pruned, cfg.Seed)
		both := dn.Reject && dp.Reject
		if !both || uint64(dp.MaxSeqs) > bound || dn.MaxSeqs < prevNaive {
			t.Violations++
		}
		prevNaive = dn.MaxSeqs
		t.AddRow(fmt.Sprint(d), fmt.Sprint(k),
			fmt.Sprint(dn.MaxSeqs), fmt.Sprint(sn.MaxMessageBits),
			fmt.Sprint(dp.MaxSeqs), fmt.Sprint(sp.MaxMessageBits),
			fmt.Sprint(bound), fmt.Sprint(both))
	}
	t.Note("naive message sizes grow linearly with d (and super-linearly on deeper graphs), violating CONGEST; pruned sizes are flat")
	return t
}

// RunE9 reproduces §1.2's determinism claim: a single k-cycle through e is
// always detected by the Phase-2 detector — no farness, no probability.
func RunE9(cfg Config) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Single planted cycle through a known edge",
		Claim:  "Phase 2 detects even a single k-cycle through e, deterministically",
		Header: []string{"k", "trials", "planted present", "detected", "missed"},
	}
	rng := xrand.New(cfg.Seed)
	trials := cfg.samples(40, 8)
	for _, k := range []int{3, 4, 5, 6, 7, 8} {
		detected, missed := 0, 0
		for tr := 0; tr < trials; tr++ {
			n := 20 + rng.Intn(20)
			g, e := graph.PlantedCycle(n, k, rng.Intn(6), rng)
			prog := &core.EdgeDetector{K: k, U: int64(e.U), V: int64(e.V)}
			dec, _ := cfg.run(g, prog, cfg.Seed+uint64(tr))
			if dec.Reject {
				detected++
			} else {
				missed++
			}
		}
		if missed > 0 {
			t.Violations++
		}
		t.AddRow(fmt.Sprint(k), fmt.Sprint(trials), fmt.Sprint(trials),
			fmt.Sprint(detected), fmt.Sprint(missed))
	}
	return t
}

// RunE10 verifies the CONGEST bandwidth claim under full concurrency: the
// largest message grows like log n, not like n.
func RunE10(cfg Config) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Message size vs network size (CONGEST compliance)",
		Claim:  "max message size is O_k(log n) bits under concurrent checks",
		Header: []string{"k", "n", "m", "max bits", "bits/log2(n)"},
	}
	rng := xrand.New(cfg.Seed)
	ns := []int{32, 128, 512, 2048}
	if cfg.Quick {
		ns = []int{32, 128}
	}
	for _, k := range []int{4, 6, 8} {
		var ratios []float64
		for _, n := range ns {
			g := graph.ConnectedGNM(n, 4*n, rng)
			prog := &core.Tester{K: k, Reps: 2}
			_, st := cfg.run(g, prog, cfg.Seed)
			ratio := float64(st.MaxMessageBits) / math.Log2(float64(n))
			ratios = append(ratios, ratio)
			t.AddRow(fmt.Sprint(k), fmt.Sprint(n), fmt.Sprint(g.M()),
				fmt.Sprint(st.MaxMessageBits), fmt.Sprintf("%.1f", ratio))
		}
		// The ratio must not blow up: allow it to at most double across a
		// 64x increase in n (it actually shrinks or stays flat).
		if ratios[len(ratios)-1] > 2.5*ratios[0] {
			t.Violations++
		}
	}
	t.Note("varint ID coding makes the bits/log2(n) ratio nearly flat; a linear-in-n message would grow the ratio by ~64x across this sweep")
	return t
}

// RunE11 contextualizes the tester against baselines on the same instances:
// the naive CONGEST strawman (correct but bandwidth-unbounded) and the
// centralized color-coding detector (no rounds; measured in colorings).
func RunE11(cfg Config) *Table {
	t := &Table{
		ID:     "E11",
		Title:  "Comparison: Algorithm 1 vs naive CONGEST vs centralized color coding",
		Claim:  "only the pruned tester is simultaneously correct, constant-round and CONGEST-compliant",
		Header: []string{"k", "instance", "algo", "detects", "rounds", "max msg bits", "notes"},
	}
	rng := xrand.New(cfg.Seed)
	n := 40
	if cfg.Quick {
		n = 24
	}
	for _, k := range []int{3, 4, 6} {
		g, e := graph.PlantedCycle(n, k, n/4, rng)
		want := central.HasCkThroughEdge(g, k, e)
		// Every baseline runs on the same instance: one reusable Instance
		// serves them all (the programs differ, so only the topology,
		// engine, and payload tables are amortized here).
		nw := cfg.network(g)
		// Pruned Phase 2.
		pr := &core.EdgeDetector{K: k, U: int64(e.U), V: int64(e.V)}
		dp, sp := runOn(nw, pr, cfg.Seed)
		if dp.Reject != want {
			t.Violations++
		}
		t.AddRow(fmt.Sprint(k), fmt.Sprintf("planted n=%d", n), "algorithm1",
			fmt.Sprint(dp.Reject), fmt.Sprint(k/2), fmt.Sprint(sp.MaxMessageBits), "CONGEST-compliant")
		// Naive Phase 2.
		na := &core.EdgeDetector{K: k, U: int64(e.U), V: int64(e.V), Mode: core.ModeNaive}
		dn, sn := runOn(nw, na, cfg.Seed)
		if dn.Reject != want {
			t.Violations++
		}
		t.AddRow(fmt.Sprint(k), fmt.Sprintf("planted n=%d", n), "naive",
			fmt.Sprint(dn.Reject), fmt.Sprint(k/2), fmt.Sprint(sn.MaxMessageBits), "unbounded messages")
		// Centralized color coding.
		iters := int(math.Ceil(math.Exp(float64(k)) * 3))
		got := central.ColorCoding(g, k, iters, rng)
		wantAny := central.HasCk(g, k)
		if got != wantAny {
			t.Violations++
		}
		t.AddRow(fmt.Sprint(k), fmt.Sprintf("planted n=%d", n), "color-coding",
			fmt.Sprint(got), "n/a", "n/a", fmt.Sprintf("centralized, %d colorings", iters))
		// The [7]-style distributed triangle tester applies only at k=3 —
		// the state of the art this paper generalizes. Its O(1/ε²) rounds
		// vs our O(1/ε) is the asymptotic gap closed.
		if k == 3 {
			eps := 0.1
			tri := &core.TriangleTester{Eps: eps}
			dtri, stri := runOn(nw, tri, cfg.Seed)
			ours := (&core.Tester{K: 3, Eps: eps}).Rounds(g.N(), g.M())
			if !dtri.Reject && central.CountTriangles(g) > 0 {
				// Randomized baseline may miss; not a violation of OUR
				// claims, but record it.
				t.Note("triangle baseline missed on this seed (randomized; allowed)")
			}
			t.AddRow("3", fmt.Sprintf("planted n=%d", n), "CHFSV16-triangle",
				fmt.Sprint(dtri.Reject), fmt.Sprint(stri.Rounds), fmt.Sprint(stri.MaxMessageBits),
				fmt.Sprintf("O(1/eps^2)=%d rounds vs our O(1/eps)=%d", stri.Rounds, ours))
		}
		// The [20]-style C4 tester is the k=4 predecessor, likewise with
		// O(1/ε²) repetitions.
		if k == 4 {
			eps := 0.1
			c4 := &core.C4Tester{Eps: eps}
			dc4, sc4 := runOn(nw, c4, cfg.Seed)
			ours := (&core.Tester{K: 4, Eps: eps}).Rounds(g.N(), g.M())
			if !dc4.Reject && central.HasCk(g, 4) {
				t.Note("C4 baseline missed on this seed (randomized; allowed)")
			}
			t.AddRow("4", fmt.Sprintf("planted n=%d", n), "FRST16-C4",
				fmt.Sprint(dc4.Reject), fmt.Sprint(sc4.Rounds), fmt.Sprint(sc4.MaxMessageBits),
				fmt.Sprintf("O(1/eps^2)=%d rounds vs our O(1/eps)=%d", sc4.Rounds, ours))
		}
		nw.Close()
	}
	return t
}

// FormatAll runs every experiment and concatenates the tables.
func FormatAll(cfg Config) string {
	var sb strings.Builder
	for _, r := range All() {
		sb.WriteString(r.Run(cfg).Format())
		sb.WriteString("\n")
	}
	return sb.String()
}
