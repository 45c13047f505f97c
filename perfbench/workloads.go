package main

import (
	"encoding/json"
	"fmt"
	"time"

	"cycledetect/internal/central"
	"cycledetect/internal/graph"
	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
	"cycledetect/internal/xrand"
)

// Workload names, as passed to --workload.
const (
	wlHot   = "query-hot"
	wlChurn = "query-churn"
	wlSweep = "sweep-trials"
)

// clients is the closed-loop client count of the query workloads (and the
// sweep's scheduler width): the nproc of the 2-CPU machine the benchmark
// was sized on. Each client owns one keep-alive connection.
const clients = 2

// query is one generated request plus what the checker needs to judge its
// answer. g is the locally rebuilt graph when the generator has it; for
// churn family requests it is rebuilt only if the answer needs checking.
type query struct {
	req  serve.QueryRequest
	body []byte
	g    *graph.Graph
	// cycleFree: the graph has no Ck, so the answer must be accept.
	cycleFree bool
	// wantReject is the oracle's answer to a detect query
	// (central.HasCkThroughEdge), computed before timing.
	wantReject bool
}

func encode(q *query) {
	b, err := json.Marshal(&q.req)
	if err != nil {
		panic(err) // QueryRequest always marshals
	}
	q.body = b
}

// hotTarget is one pre-warmed family core of query-hot. The far family's
// graph depends on k, so each far target serves a single k.
type hotTarget struct {
	gs  sweep.GraphSpec
	ks  []int
	eps float64
}

// hotTargets: eight cores, all far inside the default cache budget. The
// sparse gnm(192,288) and the tree give accepts; the dense gnm graphs give
// rejects at every k.
var hotTargets = []hotTarget{
	{gs: sweep.GraphSpec{Family: "gnm", N: 64, M: 256}, ks: []int{3, 4, 5, 6, 7}},
	{gs: sweep.GraphSpec{Family: "gnm", N: 128, M: 512}, ks: []int{3, 4, 5, 6, 7}},
	{gs: sweep.GraphSpec{Family: "gnm", N: 192, M: 288}, ks: []int{3, 4, 5, 6, 7}},
	{gs: sweep.GraphSpec{Family: "gnm", N: 256, M: 1024}, ks: []int{3, 4, 5, 6, 7}},
	{gs: sweep.GraphSpec{Family: "tree", N: 128}, ks: []int{3, 4, 5, 6, 7}},
	{gs: sweep.GraphSpec{Family: "far", N: 128}, ks: []int{5}, eps: 0.1},
	{gs: sweep.GraphSpec{Family: "far", N: 128}, ks: []int{6}, eps: 0.1},
	{gs: sweep.GraphSpec{Family: "far", N: 128}, ks: []int{7}, eps: 0.1},
}

// hotPoolSize is the number of distinct query-hot requests (ten of each
// of the 400 request classes); clients cycle through the pool, so every
// graph and answer is known before timing.
const hotPoolSize = 4000

// hotInputs is query-hot's generated request pool and its warm-up set
// (one request per target core).
type hotInputs struct {
	pool []*query
	warm []*query
}

func genHot(seed uint64) (*hotInputs, error) {
	rng := xrand.New(xrand.Mix64(seed ^ 0x686f74))
	type tk struct{ t, k int }
	graphs := make([]*graph.Graph, len(hotTargets))
	seeds := make([]uint64, len(hotTargets))
	free := map[tk]bool{}
	detect := map[[4]int]bool{}
	in := &hotInputs{}
	for i, t := range hotTargets {
		seeds[i] = xrand.Mix64(seed + uint64(i)*0x9e3779b97f4a7c15)
		g, err := sweep.BuildGraph(t.gs, t.ks[0], t.eps, seeds[i])
		if err != nil {
			return nil, err
		}
		graphs[i] = g
		for _, k := range t.ks {
			free[tk{i, k}] = !central.HasCk(g, k)
		}
		w := &query{g: g, cycleFree: free[tk{i, t.ks[0]}], req: serve.QueryRequest{
			Graph: serve.GraphRequest{Family: t.gs.Family, N: t.gs.N, M: t.gs.M, Seed: seeds[i]},
			K:     t.ks[0], Eps: t.eps, Reps: 1, Seed: rng.Uint64(), Engine: "bsp",
		}}
		encode(w)
		in.warm = append(in.warm, w)
	}
	// The pool is stratified: every seed gets the same mix — each target
	// an equal share, its k values equal shares of that, and per (target,
	// k) four tests with reps 1, four with reps 2 and two detects in ten —
	// and the seed draws the graphs, coins, edges and order.
	for len(in.pool) < hotPoolSize {
		for ti, t := range hotTargets {
			g := graphs[ti]
			for slot := 0; slot < 5; slot++ {
				k := t.ks[slot%len(t.ks)]
				for op := 0; op < 10; op++ {
					q := &query{g: g, cycleFree: free[tk{ti, k}], req: serve.QueryRequest{
						Graph:  serve.GraphRequest{Family: t.gs.Family, N: t.gs.N, M: t.gs.M, Seed: seeds[ti]},
						K:      k,
						Eps:    t.eps,
						Seed:   rng.Uint64(),
						Engine: "bsp",
					}}
					switch {
					case op < 8:
						q.req.Op = serve.OpTest
						q.req.Reps = 1 + op%2
					default:
						e := g.Edges()[rng.Intn(g.M())]
						key := [4]int{ti, k, e.U, e.V}
						want, ok := detect[key]
						if !ok {
							want = central.HasCkThroughEdge(g, k, e)
							detect[key] = want
						}
						q.req.Op = serve.OpDetect
						q.req.Edge = &[2]int64{int64(e.U), int64(e.V)}
						q.wantReject = want
					}
					encode(q)
					in.pool = append(in.pool, q)
				}
			}
		}
	}
	rng.Shuffle(len(in.pool), func(i, j int) { in.pool[i], in.pool[j] = in.pool[j], in.pool[i] })
	return in, nil
}

// churnSpec is the graph every query-churn request names, each time from
// a fresh generator seed.
var churnSpec = sweep.GraphSpec{Family: "gnm", N: 128, M: 512}

// churnK is query-churn's cycle length: small, so engine work stays a
// minor share beside build, compile and eviction.
const churnK = 4

// churnQuery generates request i of the query-churn stream with the given
// salt (the timed stream, the warm-up stream and the ladder's stream use
// different salts, so no graph is ever sent twice). About a quarter of the
// requests carry the graph as an explicit edge list; those keep the
// locally built graph for checking.
func churnQuery(seed, salt uint64, i int) (*query, error) {
	h := xrand.Mix64(xrand.Mix64(seed^salt) + uint64(i))
	gseed := xrand.Mix64(h ^ 0x67)
	q := &query{req: serve.QueryRequest{
		Op: serve.OpTest, K: churnK, Reps: 1, Seed: xrand.Mix64(h ^ 0x72), Engine: "bsp",
	}}
	if h%4 == 0 {
		g, err := sweep.BuildGraph(churnSpec, churnK, 0, gseed)
		if err != nil {
			return nil, err
		}
		edges := make([][2]int, 0, g.M())
		for _, e := range g.Edges() {
			edges = append(edges, [2]int{e.U, e.V})
		}
		q.g = g
		q.req.Graph = serve.GraphRequest{N: g.N(), Edges: edges}
	} else {
		q.req.Graph = serve.GraphRequest{Family: churnSpec.Family, N: churnSpec.N, M: churnSpec.M, Seed: gseed}
	}
	encode(q)
	return q, nil
}

// rebuild returns the query's graph, building it from the family spec when
// the generator did not keep it.
func (q *query) rebuild() (*graph.Graph, error) {
	if q.g != nil {
		return q.g, nil
	}
	gr := q.req.Graph
	return sweep.BuildGraph(sweep.GraphSpec{Family: gr.Family, N: gr.N, M: gr.M}, q.req.K, q.req.Eps, gr.Seed)
}

// Salts of the query-churn streams.
const (
	saltTimed  = 0x74696d6564
	saltWarm   = 0x7761726d
	saltLadder = 0x6c6164646572
)

// sweepGraphs are the sweep-trials graphs. ε = 0.05 keeps far(256)
// constructible at k = 9 (the construction needs ε < 1/k and room for the
// packing); with reps = 1 it changes nothing else.
var sweepGraphs = []sweep.GraphSpec{
	{Family: "gnm", N: 256, M: 1024},
	{Family: "far", N: 256},
	{Family: "tree", N: 256},
}

const sweepEps = 0.05

// sweepRound is the fixed pair of sweeps sweep-trials repeats until the
// window closes: a bsp grid over every sweep graph, and a smaller channels
// grid over far(256) and tree(256), sized to about a quarter of a round.
// The channels grid leaves out gnm(256,1024): on a 2-CPU host its
// goroutine-per-node runs swing 2x from round to round, and as the
// slowest rows they alone would set latency_p99_ms. Repeating identical
// specs also checks determinism: every round's rows must equal the first
// round's.
func sweepRound(seed uint64) []*sweep.Spec {
	s := xrand.Mix64(seed ^ 0x7377656570)
	return []*sweep.Spec{
		{Name: "bench-bsp", Graphs: sweepGraphs, K: []int{5, 7, 9}, Eps: []float64{sweepEps},
			Engines: []string{"bsp"}, Trials: 24, Reps: 1, Seed: s, Workers: clients},
		{Name: "bench-channels", Graphs: sweepGraphs[1:], K: []int{5, 7}, Eps: []float64{sweepEps},
			Engines: []string{"channels"}, Trials: 12, Reps: 1, Seed: s, Workers: clients},
	}
}

// sweepWarm is the set-up sweep: one trial per job of the same grids, which
// compiles every core and spawns the warm instances.
func sweepWarm(seed uint64) []*sweep.Spec {
	specs := sweepRound(seed)
	for _, s := range specs {
		s.Trials = 1
	}
	return specs
}

// sweepOracle records, per (graph, k), whether the graph contains a Ck:
// a row with rejects on a Ck-free graph is a wrong answer.
type sweepOracle map[string]bool

func oracleKey(gs sweep.GraphSpec, k int) string { return fmt.Sprintf("%s/k=%d", gs, k) }

func genSweepOracle(seed uint64) (sweepOracle, error) {
	or := sweepOracle{}
	for _, spec := range sweepRound(seed) {
		for _, gs := range spec.Graphs {
			for _, k := range spec.K {
				if _, ok := or[oracleKey(gs, k)]; ok {
					continue
				}
				g, err := sweep.BuildGraph(gs, k, sweepEps, spec.Seed)
				if err != nil {
					return nil, err
				}
				or[oracleKey(gs, k)] = central.HasCk(g, k)
			}
		}
	}
	return or, nil
}

// serverOptions is each workload's server configuration. query-hot keeps a
// warm instance pool for every target (2 per core); query-churn's cache
// byte budget holds only four gnm(128,512) cores, so every query evicts;
// sweep-trials leaves room for every (graph, engine) pool of its grid.
func serverOptions(workload string) serve.Options {
	o := serve.Options{Logf: logStderr, QueryTimeout: 30 * time.Second}
	switch workload {
	case wlHot:
		o.MaxInstances = 2 * len(hotTargets)
	case wlChurn:
		o.MaxInstances = 2 * clients
		o.MaxCacheBytes = 4*churnCoreBytes + churnCoreBytes/2
	case wlSweep:
		o.MaxInstances = 24
	}
	return o
}

// churnCoreBytes is a little over Compiled.MemSize of one gnm(128,512)
// core (23.5 KiB), so the churn budget holds four cores and not five.
const churnCoreBytes = 24 << 10
