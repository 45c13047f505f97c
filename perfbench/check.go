package main

import (
	"fmt"

	"cycledetect/internal/graph"
	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
)

// checkWitness verifies that w lists k distinct vertices of g that form a
// cycle in that order (the benchmark's graphs use the default ID
// assignment, so IDs are vertex indices).
func checkWitness(g *graph.Graph, k int, w []int64) error {
	if len(w) != k {
		return fmt.Errorf("witness %v has %d vertices, want %d", w, len(w), k)
	}
	seen := make(map[int64]bool, k)
	for i, v := range w {
		if v < 0 || v >= int64(g.N()) {
			return fmt.Errorf("witness %v: vertex %d out of range [0,%d)", w, v, g.N())
		}
		if seen[v] {
			return fmt.Errorf("witness %v repeats vertex %d", w, v)
		}
		seen[v] = true
		u := w[(i+1)%k]
		if !g.HasEdge(int(v), int(u)) {
			return fmt.Errorf("witness %v: {%d,%d} is not an edge", w, v, u)
		}
	}
	return nil
}

// checkAnswer judges one query's answer against the graph it names: every
// reject carries a real k-cycle, a Ck-free graph is never rejected, and a
// detect answer equals the sequential oracle.
func checkAnswer(q *query, g *graph.Graph, resp *serve.QueryResponse) error {
	if resp.N != g.N() || resp.M != g.M() {
		return fmt.Errorf("answer names a %d-vertex %d-edge graph, want %d/%d", resp.N, resp.M, g.N(), g.M())
	}
	if resp.Rejected {
		if q.cycleFree {
			return fmt.Errorf("rejected a C%d-free graph", q.req.K)
		}
		if err := checkWitness(g, q.req.K, resp.Witness); err != nil {
			return err
		}
	}
	if q.req.Op == serve.OpDetect && resp.Rejected != q.wantReject {
		return fmt.Errorf("detect through %v: rejected=%v, oracle says %v", *q.req.Edge, resp.Rejected, q.wantReject)
	}
	return nil
}

// rowKey is the deterministic part of a sweep row: everything except the
// wall time.
type rowKey struct {
	Index, N, M, Reps, Rounds, Trials, Rejects, MaxMessageBits, MaxSeqs int
	AvgMessages, AvgBits                                                float64
}

func keyOf(r *sweep.Result) rowKey {
	return rowKey{r.Index, r.N, r.M, r.Reps, r.Rounds, r.Trials, r.Rejects, r.MaxMessageBits, r.MaxSeqs, r.AvgMessages, r.AvgBits}
}

// checkRows judges one streamed sweep against its spec: one row per job in
// job order, each with the spec's trial count, no rejects on a Ck-free
// graph (trees above all), and, when first is non-nil, rows identical to
// the first round's.
func checkRows(spec *sweep.Spec, rows []sweep.Result, or sweepOracle, first []sweep.Result) error {
	jobs, _ := spec.Jobs()
	if len(rows) != len(jobs) {
		return fmt.Errorf("sweep %s: %d rows for %d jobs", spec.Name, len(rows), len(jobs))
	}
	for i := range rows {
		r := &rows[i]
		if r.Index != i || r.Trials != spec.Trials {
			return fmt.Errorf("sweep %s: row %d is job %d with %d trials", spec.Name, i, r.Index, r.Trials)
		}
		if r.Rejects > 0 && (r.Graph.Family == "tree" || !or[oracleKey(r.Graph, r.K)]) {
			return fmt.Errorf("sweep %s: %d rejects on C%d-free %s", spec.Name, r.Rejects, r.K, r.Graph)
		}
		if first != nil && keyOf(r) != keyOf(&first[i]) {
			return fmt.Errorf("sweep %s: row %d differs from the first round: %+v vs %+v", spec.Name, i, keyOf(r), keyOf(&first[i]))
		}
	}
	return nil
}
