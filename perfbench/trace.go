package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/corestore"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
	"cycledetect/internal/xrand"
)

// The traced run spends its --seconds in these shares: untraced windows
// before and after the traced one (their mean is the trace-overhead
// baseline), the traced window, and the layer ladder.
const (
	untracedShare = 0.15
	tracedShare   = 0.30
	ladderShare   = 0.40
)

// layerMetric is one per-layer figure with the layer it is a share of.
type layerMetric struct {
	name, unit string
	value      float64
	parent     string // name of the parent figure, "" for none
	note       string
}

// ladder accumulates per-layer figures in report order, and the wrong
// answers the ladder's own checks found (the first few kept as text).
type ladder struct {
	ms     []layerMetric
	index  map[string]int
	nwrong int
	wrong  []string
}

func (l *ladder) set(name, unit string, value float64, parent, note string) {
	if l.index == nil {
		l.index = map[string]int{}
	}
	l.index[name] = len(l.ms)
	l.ms = append(l.ms, layerMetric{name, unit, value, parent, note})
}

func (l *ladder) get(name string) float64 {
	if i, ok := l.index[name]; ok {
		return l.ms[i].value
	}
	return 0
}

func (l *ladder) fail(format string, args ...any) {
	l.nwrong++
	if len(l.wrong) < 5 {
		l.wrong = append(l.wrong, fmt.Sprintf(format, args...))
	}
}

// runTraced is the --trace 1 run: the workload's windows with the server's
// own /metrics and /stats read from outside, then the layer ladder over
// the same generated inputs.
func runTraced(ctx context.Context, in *inputs, dur time.Duration) (*result, error) {
	r, _, err := setup(ctx, in)
	if err != nil {
		return nil, err
	}
	defer r.close()
	l := &ladder{}
	part := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }

	before, err := runWindow(ctx, r, in, part(untracedShare), saltTimed+1)
	if err != nil {
		return nil, err
	}
	tw, err := tracedWindow(ctx, r, in, part(tracedShare), l)
	if err != nil {
		return nil, err
	}
	after, err := runWindow(ctx, r, in, part(untracedShare), saltTimed+3)
	if err != nil {
		return nil, err
	}
	untraced := (before.throughput() + after.throughput()) / 2
	total := &window{}
	for _, w := range []*window{before, tw, after} {
		total.merge(w)
	}

	if err := runLadder(ctx, r, in, part(ladderShare), l, tw); err != nil {
		return nil, err
	}
	l.set("trace_overhead_frac", "frac", 1-tw.throughput()/untraced, "",
		fmt.Sprintf("traced %.1f vs untraced %.1f ops/s", tw.throughput(), untraced))

	printLadder(in, l)
	for _, e := range total.errs {
		fmt.Println("# failure:", e)
	}
	for _, e := range l.wrong {
		fmt.Println("# ladder failure:", e)
	}
	m := map[string]metric{}
	for _, lm := range l.ms {
		m[lm.name] = metric{lm.value, lm.unit}
	}
	return &result{
		Correct:   total.wrong == 0 && l.nwrong == 0,
		Attempted: total.attempted,
		Failed:    total.failed + l.nwrong,
		Metrics:   m,
	}, nil
}

// histDelta is a /metrics histogram's growth over the window, summed over
// the given label sets: total observed time in µs and observation count.
func histDelta(m0, m1 scrape, name string, labels ...string) (sumUS, count float64) {
	if len(labels) == 0 {
		labels = []string{""}
	}
	for _, lb := range labels {
		sumUS += 1e6 * (m1[name+"_sum"+lb] - m0[name+"_sum"+lb])
		count += m1[name+"_count"+lb] - m0[name+"_count"+lb]
	}
	return sumUS, count
}

// tracedWindow runs one window with the server's instrumentation read
// from outside: /metrics and /stats before and after, and a sampler that
// reads the Go runtime's heap every 20ms and, on sweep-trials, scrapes
// sweep_active_workers from /metrics.
func tracedWindow(ctx context.Context, r *rig, in *inputs, d time.Duration, l *ladder) (*window, error) {
	m0, err := r.scrapeMetrics(ctx)
	if err != nil {
		return nil, err
	}
	s0, err := r.stats(ctx)
	if err != nil {
		return nil, err
	}
	cpu0 := readCPU()

	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		heapPeak float64
		busy     []float64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			metrics.Read(sample)
			heapPeak = math.Max(heapPeak, float64(sample[0].Value.Uint64()))
			if in.workload == wlSweep {
				if s, err := r.scrapeMetrics(ctx); err == nil {
					busy = append(busy, s["sweep_active_workers"])
				}
			}
		}
	}()
	w, err := runWindow(ctx, r, in, d, saltTimed+2)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	cpu1 := readCPU()
	m1, err := r.scrapeMetrics(ctx)
	if err != nil {
		return nil, err
	}
	s1, err := r.stats(ctx)
	if err != nil {
		return nil, err
	}

	endpoint := `{queue="query"}`
	requests := float64(s1.Queries - s0.Queries)
	if in.workload == wlSweep {
		endpoint = `{queue="sweep"}`
		requests = float64(s1.Sweeps - s0.Sweeps)
	}
	waited, _ := histDelta(m0, m1, "serve_queue_wait_seconds", `{queue="query"}`, `{queue="sweep"}`, `{queue="instances"}`)
	_, admitted := histDelta(m0, m1, "serve_queue_wait_seconds", endpoint)
	acquired, acquires := histDelta(m0, m1, "serve_acquire_seconds")
	hits, misses := float64(s1.Hits-s0.Hits), float64(s1.Misses-s0.Misses)
	ops := float64(w.attempted)

	l.set("serve.queue_wait_us", "us", share(waited, admitted), "",
		fmt.Sprintf("admission + instance-budget wait per admitted request, /metrics delta over %.0f requests", admitted))
	l.set("serve.acquire_us", "us", share(acquired, acquires), "", fmt.Sprintf("mean of serve_acquire_seconds, %.0f acquires", acquires))
	if ran, runs := histDelta(m0, m1, "serve_run_seconds"); runs > 0 {
		l.set("serve.run_us", "us", ran/runs, "", fmt.Sprintf("mean of serve_run_seconds, %.0f runs", runs))
	} else {
		l.set("serve.run_us", "us", 0, "", "absent: serve_run_seconds times /query runs only")
	}
	l.set("serve.shed_frac", "frac", share(float64(s1.Shed-s0.Shed), requests), "",
		fmt.Sprintf("/stats shed over %.0f requests", requests))
	l.set("corestore.hit_ratio", "frac", share(hits, hits+misses), "",
		fmt.Sprintf("%.0f hits, %.0f misses, %d compiles in the window", hits, misses, s1.Compiles-s0.Compiles))
	l.set("corestore.evictions_per_op", "count", share(float64(s1.Evictions-s0.Evictions), ops), "",
		fmt.Sprintf("%d evictions over %.0f ops", s1.Evictions-s0.Evictions, ops))
	l.set("corestore.cache_mb", "MiB", float64(s1.CacheBytes)/(1<<20), "",
		fmt.Sprintf("%d cores cached at the window's end, budget %d bytes", s1.GraphsCached, s1.MaxCacheBytes))
	if in.workload == wlSweep {
		l.set("sweep.worker_busy_frac", "frac", mean(busy)/clients, "",
			fmt.Sprintf("sweep_active_workers / %d, %d samples", clients, len(busy)))
	} else {
		l.set("sweep.worker_busy_frac", "frac", 0, "", "absent: no sweep in this workload")
	}
	l.set("runtime.gc_cpu_frac", "frac", share(cpu1.gc-cpu0.gc, cpu1.total-cpu0.total), "",
		"runtime/metrics GC CPU over total CPU, traced window")
	l.set("runtime.heap_peak_mb", "MiB", heapPeak/(1<<20), "", "peak heap object bytes (live and not yet swept), sampled every 20ms in the traced window")
	return w, nil
}

type cpuReading struct{ gc, total float64 }

func readCPU() cpuReading {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuReading{s[0].Value.Float64(), s[1].Value.Float64()}
}

// lcase is one ladder input: a request of the workload and everything the
// layers below the server need to replay it the way the server would.
type lcase struct {
	q      *query
	g      *graph.Graph
	key    string
	build  func() (*graph.Graph, error)
	prog   network.Program
	seed   uint64
	engine network.Engine
}

// newCase mirrors serve's request resolution: the cache key and builder,
// and the program a warm worker would arm.
func newCase(q *query) (*lcase, error) {
	g, err := q.rebuild()
	if err != nil {
		return nil, err
	}
	c := &lcase{q: q, g: g, seed: q.req.Seed, engine: network.Engine(q.req.Engine)}
	gr := q.req.Graph
	if gr.Family != "" {
		gs := sweep.GraphSpec{Family: gr.Family, N: gr.N, M: gr.M}
		k, eps, seed := q.req.K, q.req.Eps, gr.Seed
		c.key = sweep.FamilyKey(gs, k, eps, seed)
		c.build = func() (*graph.Graph, error) { return sweep.BuildGraph(gs, k, eps, seed) }
	} else {
		c.key = "fp:" + g.Fingerprint()
		c.build = func() (*graph.Graph, error) { return g, nil }
	}
	if q.req.Op == serve.OpDetect {
		c.prog = &core.EdgeDetector{K: q.req.K, U: q.req.Edge[0], V: q.req.Edge[1]}
	} else {
		c.prog = &core.Tester{K: q.req.K, Eps: q.req.Eps, Reps: q.req.Reps}
	}
	return c, nil
}

// sweepCases turns every job of the sweep round into a query on the same
// cached core (same family key), so the serving layers can be replayed
// with the sweep's graphs and programs.
func sweepCases(specs []*sweep.Spec) ([]*lcase, error) {
	var cs []*lcase
	for _, spec := range specs {
		jobs, _ := spec.Jobs()
		for _, j := range jobs {
			q := &query{req: serve.QueryRequest{
				Graph: serve.GraphRequest{Family: j.Graph.Family, N: j.Graph.N, M: j.Graph.M, Seed: spec.Seed},
				Op:    serve.OpTest, K: j.K, Eps: j.Eps, Reps: spec.Reps,
				Seed: xrand.Mix64(spec.Seed + uint64(j.Index)), Engine: string(j.Engine),
			}}
			encode(q)
			c, err := newCase(q)
			if err != nil {
				return nil, err
			}
			cs = append(cs, c)
		}
	}
	return cs, nil
}

// caseSource yields ladder cases. On query-churn every case is a fresh
// graph from the ladder's own stream, so every replay takes the miss path
// the workload takes.
type caseSource struct {
	fixed []*lcase
	in    *inputs
	next  int
}

// churnPass is the number of fresh cases in one query-churn pass.
const churnPass = 16

func (cs *caseSource) get(i int) (*lcase, error) {
	if cs.fixed != nil {
		return cs.fixed[i%len(cs.fixed)], nil
	}
	q, err := churnQuery(cs.in.seed, saltLadder, cs.next)
	cs.next++
	if err != nil {
		return nil, err
	}
	return newCase(q)
}

// pass returns one pass of cases: the fixed sequence, or churnPass fresh
// ones.
func (cs *caseSource) pass() ([]*lcase, error) {
	if cs.fixed != nil {
		return cs.fixed, nil
	}
	out := make([]*lcase, churnPass)
	for i := range out {
		c, err := cs.get(i)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// engineCases is how many distinct bsp inputs the engine, node and wire
// layers replay (all nine bsp jobs on sweep-trials).
const engineCases = 9

func ladderCases(in *inputs) (*caseSource, error) {
	switch in.workload {
	case wlHot:
		var cs []*lcase
		for _, q := range in.hot.pool[:engineCases] {
			c, err := newCase(q)
			if err != nil {
				return nil, err
			}
			cs = append(cs, c)
		}
		return &caseSource{fixed: cs}, nil
	case wlSweep:
		cs, err := sweepCases(in.specs)
		return &caseSource{fixed: cs}, err
	}
	return &caseSource{in: in}, nil
}

// timed repeats fn until d has passed (at least atLeast times) and returns the
// number of calls.
func timed(d time.Duration, atLeast int, fn func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i < atLeast || time.Since(start) < d; i++ {
		if err := fn(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runLadder measures each layer from the benchmark's side, around the
// public entry points of its module, on the workload's own inputs. The
// serving layers are timed in passes over one case sequence, so a warm
// instance's node reuse (which depends on the previous request's
// parameters) follows the same pattern in every pass.
func runLadder(ctx context.Context, r *rig, in *inputs, budget time.Duration, l *ladder, tw *window) error {
	src, err := ladderCases(in)
	if err != nil {
		return err
	}
	slice := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }

	// serve: an HTTP pass, a direct Server.Query pass, and a pass through
	// Server.Query's children (corestore checkout, the run, release), in
	// turn until the slice is spent, so drift affects all three alike.
	// Each pass starts from scrambled instances (see scramble), so none of
	// them inherits warm nodes from the pass before it.
	sl := &serveLadder{r: r, l: l, arms: map[*network.Instance]armed{}}
	_, err = timed(slice(0.4), 3, func(int) error {
		for _, pass := range []func(context.Context, []*lcase) error{sl.httpPass, sl.directPass, sl.childPass} {
			cs, err := src.pass()
			if err != nil {
				return err
			}
			if src.fixed != nil { // fresh query-churn cases have no warm nodes to inherit
				if err := sl.scramble(ctx, cs); err != nil {
					return err
				}
			}
			if err := pass(ctx, cs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ladder, serve: %w", err)
	}
	sl.report()

	if err := coldPath(ctx, src, slice(0.1), l); err != nil {
		return fmt.Errorf("ladder, cold path: %w", err)
	}
	if err := engineLadder(ctx, src, slice(0.35), l); err != nil {
		return fmt.Errorf("ladder, engine: %w", err)
	}
	if in.workload == wlSweep {
		if err := standaloneSweep(ctx, in, slice(0.15), l, tw); err != nil {
			return fmt.Errorf("ladder, sweep: %w", err)
		}
	} else {
		l.set("sweep.standalone_trials_s", "1/s", 0, "", "absent: no sweep in this workload")
	}
	return nil
}

// armed is the program a pooled instance last ran, with the request
// parameters it was built for.
type armed struct {
	key  string
	prog network.Program
}

// serveLadder times the serving layers: POST /query, a direct
// Server.Query, and Server.Query's children called one by one.
type serveLadder struct {
	r    *rig
	l    *ladder
	arms map[*network.Instance]armed

	httpT, directT, coT, runT, relT, hitT time.Duration
	nHTTP, nDirect, n, hitN               int
	reqB, respB                           int64
}

// scramble runs a no-op program on the instance each case checks out.
// An instance reuses its nodes only when it runs the same Program value
// twice in a row, and the server's workers and the child pass hold
// different values; without this, a pass would reuse the nodes of the
// pass before it when that pass ran the server's programs, and rebuild
// them otherwise. After it, every pass rebuilds on its first run per
// instance, as the workloads' mixed parameters mostly do.
func (sl *serveLadder) scramble(ctx context.Context, cs []*lcase) error {
	store := sl.r.srv.Store()
	for _, c := range cs {
		h, _, err := store.Checkout(ctx, c.key, c.build, c.engine, 1)
		if err != nil {
			return err
		}
		_, err = h.Inst.RunProgramCtx(ctx, nopProgram{}, 0)
		store.Release(h)
		if err != nil {
			return err
		}
	}
	return nil
}

// nopProgram is a one-round program whose nodes do nothing.
type nopProgram struct{}

func (nopProgram) Rounds(n, m int) int                   { return 1 }
func (nopProgram) NewNode(network.NodeInfo) network.Node { return nopNode{} }

type nopNode struct{}

func (nopNode) Send(int, [][]byte)    {}
func (nopNode) Receive(int, [][]byte) {}
func (nopNode) Output() any           { return nil }

func (sl *serveLadder) httpPass(ctx context.Context, cs []*lcase) error {
	for _, c := range cs {
		t0 := time.Now()
		resp, nb, err := sl.r.query(ctx, c.q)
		sl.httpT += time.Since(t0)
		if err != nil {
			return err
		}
		sl.nHTTP++
		sl.reqB += int64(len(c.q.body))
		sl.respB += int64(nb)
		if err := checkAnswer(c.q, c.g, resp); err != nil {
			sl.l.fail("POST /query %s: %v", c.q.body, err)
		}
	}
	return nil
}

func (sl *serveLadder) directPass(ctx context.Context, cs []*lcase) error {
	for _, c := range cs {
		req := c.q.req
		t0 := time.Now()
		resp, err := sl.r.srv.Query(ctx, &req)
		sl.directT += time.Since(t0)
		if err != nil {
			return err
		}
		sl.nDirect++
		if err := checkAnswer(c.q, c.g, resp); err != nil {
			sl.l.fail("Server.Query %s: %v", c.q.body, err)
		}
	}
	return nil
}

// childPass calls what Server.Query calls, on the server's own store:
// Checkout, RunProgramCtx on the checked-out instance, Release.
func (sl *serveLadder) childPass(ctx context.Context, cs []*lcase) error {
	store := sl.r.srv.Store()
	for _, c := range cs {
		t0 := time.Now()
		h, hit, err := store.Checkout(ctx, c.key, c.build, c.engine, 1)
		co := time.Since(t0)
		if err != nil {
			return err
		}
		// Reuse the program value while the parameters repeat, as a
		// serving worker does, so node reuse follows the server's.
		pk := fmt.Sprint(c.q.req.Op, c.q.req.K, c.q.req.Eps, c.q.req.Reps, c.q.req.Edge)
		if a, ok := sl.arms[h.Inst]; !ok || a.key != pk {
			sl.arms[h.Inst] = armed{pk, c.prog}
		}
		t1 := time.Now()
		res, err := h.Inst.RunProgramCtx(ctx, sl.arms[h.Inst].prog, c.seed)
		run := time.Since(t1)
		if err != nil {
			store.Release(h)
			return err
		}
		dec := core.Summarize(res.Outputs, res.IDs)
		t2 := time.Now()
		store.Release(h)
		sl.relT += time.Since(t2)
		sl.coT += co
		sl.runT += run
		sl.n++
		if hit {
			sl.hitT += co
			sl.hitN++
		}
		if dec.Reject {
			if err := checkWitness(c.g, c.q.req.K, dec.Witness); err != nil {
				sl.l.fail("run %s: %v", c.q.body, err)
			}
		}
	}
	return nil
}

func (sl *serveLadder) report() {
	l := sl.l
	rtt, direct := us(sl.httpT)/float64(sl.nHTTP), us(sl.directT)/float64(sl.nDirect)
	n := float64(sl.n)
	checkout, run, rel := us(sl.coT)/n, us(sl.runT)/n, us(sl.relT)/n
	l.set("serve.http.rtt_us", "us", rtt, "", fmt.Sprintf("POST /query over loopback keep-alive, %d samples", sl.nHTTP))
	l.set("serve.http.self_us", "us", rtt-direct, "serve.http.rtt_us", "round trip minus a direct Server.Query of the same requests")
	l.set("serve.http.req_bytes", "bytes", float64(sl.reqB)/float64(sl.nHTTP), "", "")
	l.set("serve.http.resp_bytes", "bytes", float64(sl.respB)/float64(sl.nHTTP), "", "")
	l.set("serve.query_us", "us", direct, "serve.http.rtt_us", fmt.Sprintf("direct Server.Query, %d samples", sl.nDirect))
	l.set("serve.query.self_us", "us", direct-checkout-run-rel, "serve.query_us",
		"Server.Query minus checkout + run + release (it includes building an explicit graph from its edge list); a difference of means, so it can read below 0 when smaller than their noise")
	l.set("corestore.checkout_us", "us", checkout, "serve.query_us", fmt.Sprintf("Store.Checkout as this workload hits it (%d of %d hits)", sl.hitN, sl.n))
	l.set("network.run_in_query_us", "us", run, "serve.query_us", "Instance.RunProgramCtx on the checked-out instance")
	l.set("corestore.release_us", "us", rel, "serve.query_us", "Store.Release")
	if sl.hitN > 0 {
		l.set("corestore.checkout_hit_us", "us", us(sl.hitT)/float64(sl.hitN), "serve.query_us", fmt.Sprintf("%d hits", sl.hitN))
	} else {
		l.set("corestore.checkout_hit_us", "us", 0, "serve.query_us", "absent: this workload never hits")
	}
}

// coldPath times what a miss costs, piece by piece: graph build (from the
// family spec, or from the edge list as serve builds explicit graphs),
// fingerprint, compile, instance spawn, and a whole miss checkout against
// a fresh store.
func coldPath(ctx context.Context, src *caseSource, d time.Duration, l *ladder) error {
	var buildT, fpT, compT, instT, missT time.Duration
	n, err := timed(d, 4, func(i int) error {
		c, err := src.get(i)
		if err != nil {
			return err
		}
		gr := c.q.req.Graph
		t0 := time.Now()
		var g *graph.Graph
		if gr.Family != "" {
			g, err = c.build()
		} else {
			g, err = buildExplicit(gr.N, gr.Edges)
		}
		buildT += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_ = g.Fingerprint()
		fpT += time.Since(t0)
		t0 = time.Now()
		comp, err := network.Compile(g, network.CompileOptions{})
		compT += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		inst, err := comp.NewInstance(network.InstanceOptions{Engine: c.engine, Workers: 1})
		instT += time.Since(t0)
		if err != nil {
			return err
		}
		inst.Close()

		cold := corestore.New(corestore.Options{})
		defer cold.Close()
		t0 = time.Now()
		h, hit, err := cold.Checkout(ctx, c.key, c.build, c.engine, 1)
		missT += time.Since(t0)
		if err != nil {
			return err
		}
		if hit {
			return fmt.Errorf("checkout on an empty store reported a hit")
		}
		cold.Release(h)
		return nil
	})
	if err != nil {
		return err
	}
	f := float64(n)
	l.set("corestore.checkout_miss_us", "us", us(missT)/f, "", fmt.Sprintf("Store.Checkout on an empty store, %d samples", n))
	l.set("graph.build_us", "us", us(buildT)/f, "corestore.checkout_miss_us", "")
	l.set("graph.fingerprint_us", "us", us(fpT)/f, "corestore.checkout_miss_us", "")
	l.set("network.compile_us", "us", us(compT)/f, "corestore.checkout_miss_us", "")
	l.set("network.new_instance_us", "us", us(instT)/f, "corestore.checkout_miss_us", "")
	return nil
}

// buildExplicit builds a graph from an edge list the way serve does for
// explicit requests: builder, build, connectivity check.
func buildExplicit(n int, edges [][2]int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	if !graph.Connected(g) {
		return nil, fmt.Errorf("explicit graph is not connected")
	}
	return g, nil
}

// engineInput is one replayed input of the engine, node and wire layers.
type engineInput struct {
	c    *lcase
	drv  *nodeDriver
	ref  *driverRun
	cp   *capture
	echo *echoProgram
	// One instance per engine for the real program and one for its echo,
	// so each keeps its nodes between runs (steady state).
	insts, echoInsts map[network.Engine]*network.Instance
}

var engines = []network.Engine{network.EngineBSP, network.EngineChannels}

// engineLadder replays engineCases inputs on both engines with the real
// program and with its echo (engine cost alone), then drives the same
// nodes sequentially for Send/Receive times, then replays the captured
// Phase-2 payloads through the wire codec. The node driver's first run of
// each input must match the bsp engine byte for byte, and so must every
// timed run.
func engineLadder(ctx context.Context, src *caseSource, d time.Duration, l *ladder) error {
	var ins []*engineInput
	defer func() {
		for _, ei := range ins {
			for _, m := range []map[network.Engine]*network.Instance{ei.insts, ei.echoInsts} {
				for _, inst := range m {
					inst.Close()
				}
			}
		}
	}()
	for i := 0; len(ins) < engineCases; i++ {
		if src.fixed != nil && i >= len(src.fixed) {
			break
		}
		c, err := src.get(i)
		if err != nil {
			return err
		}
		if c.engine != network.EngineBSP {
			continue // the channels cases of sweep-trials are the bsp jobs again
		}
		comp, err := network.Compile(c.g, network.CompileOptions{})
		if err != nil {
			return err
		}
		ei := &engineInput{c: c, drv: newNodeDriver(comp), cp: &capture{},
			insts: map[network.Engine]*network.Instance{}, echoInsts: map[network.Engine]*network.Instance{}}
		ins = append(ins, ei)
		ei.ref = ei.drv.run(c.prog, c.seed, ei.cp)
		ei.echo = newEchoProgram(ei.cp)
		for _, e := range engines {
			inst, err := comp.NewInstance(network.InstanceOptions{Engine: e, Workers: 1})
			if err != nil {
				return err
			}
			ei.insts[e] = inst
			res, err := inst.RunProgramCtx(ctx, c.prog, c.seed)
			if err != nil {
				return err
			}
			if err := sameRun(ei.ref, res.Stats, core.Summarize(res.Outputs, res.IDs)); err != nil {
				l.fail("%s engine vs node driver on %s: %v", e, c.q.body, err)
			}
			echoInst, err := comp.NewInstance(network.InstanceOptions{Engine: e, Workers: 1})
			if err != nil {
				return err
			}
			ei.echoInsts[e] = echoInst
			eres, err := echoInst.RunProgramCtx(ctx, ei.echo, 0)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(cloneStats(eres.Stats), ei.ref.stats) {
				l.fail("%s echo run of %s does not reproduce the real run's traffic", e, c.q.body)
			}
		}
	}
	if len(ins) == 0 {
		return fmt.Errorf("no bsp inputs to replay")
	}

	// Engines: real runs and echo runs, alternating, per engine.
	nodeRounds := 0.0
	for _, ei := range ins {
		nodeRounds += float64(ei.c.g.N() * ei.ref.stats.Rounds)
	}
	for _, e := range engines {
		var realT, echoT time.Duration
		passes, err := timed(d*3/10/2, 1, func(int) error {
			for _, ei := range ins {
				t0 := time.Now()
				if _, err := ei.insts[e].RunProgramCtx(ctx, ei.c.prog, ei.c.seed); err != nil {
					return err
				}
				t1 := time.Now()
				if _, err := ei.echoInsts[e].RunProgramCtx(ctx, ei.echo, 0); err != nil {
					return err
				}
				realT += t1.Sub(t0)
				echoT += time.Since(t1)
			}
			return nil
		})
		if err != nil {
			return err
		}
		runs := float64(passes * len(ins))
		l.set("network.run_us."+string(e), "us", us(realT)/runs, "", fmt.Sprintf("Instance.RunProgramCtx, steady state, %d inputs x %d passes", len(ins), passes))
		l.set("network.engine_ns_per_node_round."+string(e), "ns", float64(echoT.Nanoseconds())/(nodeRounds*float64(passes)), "",
			"echo program (same rounds and payload sizes, no node logic) per node per round")
		name := "network.engine_share"
		if e != network.EngineBSP {
			name += "." + string(e)
		}
		l.set(name, "frac", share(float64(echoT), float64(realT)), "", "echo run / real run on "+string(e))
	}

	// Nodes: the sequential driver, every run checked against the engine.
	var sendT, recvT time.Duration
	var recvR [maxLadderRounds]time.Duration
	passes, err := timed(d*4/10, 1, func(int) error {
		for _, ei := range ins {
			dr := ei.drv.run(ei.c.prog, ei.c.seed, nil)
			if err := sameRun(dr, ei.ref.stats, ei.ref.decision); err != nil {
				l.fail("node driver rerun of %s: %v", ei.c.q.body, err)
			}
			sendT += dr.send
			recvT += dr.recvAll
			for j := range recvR {
				recvR[j] += dr.recv[j]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	runs := float64(passes * len(ins))
	l.set("core.send_us", "us", us(sendT)/runs, "network.run_us.bsp", "all nodes' Send per run, sequential driver")
	l.set("core.receive_us", "us", us(recvT)/runs, "network.run_us.bsp", "all nodes' Receive per run, sequential driver")
	maxRound := 0
	for _, ei := range ins {
		maxRound = max(maxRound, localRound(ei.c.prog, ei.ref.stats.Rounds))
	}
	for j := range recvR {
		name := fmt.Sprintf("core.receive_us.r%d", j+1)
		note := "Phase-1 rank round"
		if j > 0 {
			note = fmt.Sprintf("Phase-2 round %d", j)
		}
		if j > maxRound {
			note = fmt.Sprintf("absent: no input of this workload has Phase-2 round %d (needs k >= %d)", j, 2*j)
		}
		l.set(name, "us", us(recvR[j])/runs, "core.receive_us", note)
	}

	// Counts: exact, not speeds.
	var msgs, bits, p2 float64
	maxSeqs, bound, atRound := 0, 0, 0
	for _, ei := range ins {
		msgs += float64(ei.ref.stats.MessagesSent)
		bits += float64(ei.ref.stats.TotalBits)
		p2 += float64(len(ei.cp.checks))
		// Lemma 3 bounds the sequences in a Phase-2 round-t message by
		// (k-t+1)^(t-1); MaxSeqsPerRound[t-1] is round t's maximum.
		k := programK(ei.c.prog)
		for i, s := range ei.ref.decision.MaxSeqsPerRound {
			t := i + 1
			if s > maxSeqs {
				maxSeqs, atRound = s, t
				bound = int(math.Pow(float64(k-t+1), float64(t-1)))
			}
		}
	}
	ni := float64(len(ins))
	l.set("core.messages_per_run", "count", msgs/ni, "", fmt.Sprintf("mean over %d inputs", len(ins)))
	l.set("core.bits_per_run", "bits", bits/ni, "", "")
	l.set("core.max_seqs_bound", "count", float64(bound), "", fmt.Sprintf("Lemma-3 bound (k-t+1)^(t-1) at round t=%d, where core.max_seqs occurs", atRound))
	l.set("core.max_seqs", "count", float64(maxSeqs), "core.max_seqs_bound", "largest sequence count in one message")

	// Wire: the captured Phase-2 payloads.
	var payloads [][]byte
	for _, ei := range ins {
		payloads = append(payloads, ei.cp.checks...)
	}
	if len(payloads) == 0 {
		const why = "absent: no Phase-2 payloads"
		l.set("wire.decode_ns_per_msg", "ns", 0, "", why)
		l.set("wire.encode_ns_per_msg", "ns", 0, "", why)
		l.set("wire.bytes_per_msg", "bytes", 0, "", why)
		l.set("wire.share_of_receive", "frac", 0, "", why)
		return nil
	}
	wr, err := newWireReplay(payloads)
	if err != nil {
		return err
	}
	dst := make([]network.ID, 0, 64)
	var decT time.Duration
	dp, err := timed(d*15/100, 1, func(int) error {
		t0 := time.Now()
		_, err := wr.decodeAll(dst)
		decT += time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 4096)
	var encT time.Duration
	ep, _ := timed(d*15/100, 1, func(int) error {
		t0 := time.Now()
		wr.encodeAll(buf)
		encT += time.Since(t0)
		return nil
	})
	np := float64(len(payloads))
	decNs := float64(decT.Nanoseconds()) / (np * float64(dp))
	l.set("wire.decode_ns_per_msg", "ns", decNs, "", fmt.Sprintf("ParseCheck+Validate+Iter over %d captured Phase-2 payloads", len(payloads)))
	l.set("wire.encode_ns_per_msg", "ns", float64(encT.Nanoseconds())/(np*float64(ep)), "", "AppendCheck of the decoded message")
	l.set("wire.bytes_per_msg", "bytes", float64(wr.payloadBytes())/np, "", "")
	l.set("wire.share_of_receive", "frac", share(decNs*p2/ni/1000, l.get("core.receive_us")), "",
		"full decode of a run's Phase-2 messages over the run's Receive time; an upper bound, since receivers parse only the header of a discarded check")
	return nil
}

func programK(p network.Program) int {
	switch t := p.(type) {
	case *core.Tester:
		return t.K
	case *core.EdgeDetector:
		return t.K
	}
	return 0
}

// standaloneSweep runs the same sweep round through sweep.RunCtx with the
// standalone provider (no server, no shared store); its rows must equal
// the served rows.
func standaloneSweep(ctx context.Context, in *inputs, d time.Duration, l *ladder, tw *window) error {
	trials := 0
	start := time.Now()
	_, err := timed(d, 1, func(int) error {
		for i, spec := range sweepRound(in.seed) {
			var rows []sweep.Result
			sink := sweep.FuncSink(func(r *sweep.Result) error { rows = append(rows, *r); return nil })
			sum, err := sweep.RunCtx(ctx, spec, nil, sink)
			if err != nil {
				return err
			}
			trials += sum.Trials
			var first []sweep.Result
			if i < len(tw.rows) {
				first = tw.rows[i]
			}
			if err := checkRows(spec, rows, in.oracle, first); err != nil {
				l.fail("standalone sweep: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	el := time.Since(start)
	l.set("sweep.standalone_trials_s", "1/s", float64(trials)/el.Seconds(), "",
		fmt.Sprintf("sweep.RunCtx with the nil provider; served: %.1f trials/s in the traced window", tw.throughput()))
	return nil
}

// printLadder prints every per-layer figure with its share of its parent.
func printLadder(in *inputs, l *ladder) {
	fmt.Printf("# per-layer ladder, %s (values are means per op unless noted; share = value / parent)\n", in.workload)
	fmt.Printf("%-40s %14s %-6s %-28s %8s  %s\n", "metric", "value", "unit", "parent", "share", "note")
	for _, m := range l.ms {
		sh := ""
		if m.parent != "" {
			sh = fmt.Sprintf("%7.1f%%", 100*share(m.value, l.get(m.parent)))
		}
		fmt.Printf("%-40s %14.4f %-6s %-28s %8s  %s\n", m.name, m.value, m.unit, m.parent, sh, strings.TrimSpace(m.note))
	}
}
