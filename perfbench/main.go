// Command perfbench is the repository benchmark. It starts an in-process
// serve.Server on a loopback listener and drives one workload against it
// from this process:
//
//	query-hot     closed loop, 2 clients, POST /query on eight pre-warmed cores
//	query-churn   closed loop, 2 clients, POST /query on never-seen graphs
//	sweep-trials  streamed POST /sweep over a bsp grid and a channels grid
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// replays the same generated inputs down the layer ladder (trace.go). The
// last line of standard output is one JSON object with the result; every
// answer is checked, and a wrong answer makes the exit code non-zero.
//
// Run it from the root of a checkout through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload query-hot --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"cycledetect/internal/sweep"
)

// procStart approximates process start for the "first timed op" figure.
var procStart = time.Now()

// The untraced run sets the server up at least minSetups and at most
// maxSetups times, stopping after minSetups once setupBudget has been
// spent; the reported setup_s is the median. A set-up takes tens of
// milliseconds, so a slow second of the host moves a handful of them, not
// the median.
const (
	minSetups   = 11
	maxSetups   = 41
	setupBudget = 3 * time.Second
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// inputs is everything a workload sends, generated from the seed before
// any server exists.
type inputs struct {
	workload string
	seed     uint64
	hot      *hotInputs
	specs    []*sweep.Spec
	oracle   sweepOracle
}

func generate(workload string, seed uint64) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed}
	var err error
	switch workload {
	case wlHot:
		in.hot, err = genHot(seed)
	case wlChurn:
	case wlSweep:
		in.specs = sweepRound(seed)
		in.oracle, err = genSweepOracle(seed)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, wlHot, wlChurn, wlSweep)
	}
	return in, err
}

// stream returns the timed request stream of a query workload.
func (in *inputs) stream(salt uint64) queryStream {
	if in.workload == wlHot {
		pool := in.hot.pool
		return func(i int) (*query, error) { return pool[i%len(pool)], nil }
	}
	return func(i int) (*query, error) { return churnQuery(in.seed, salt, i) }
}

// setup builds a server and warms it: query-hot compiles every target core
// and primes a warm instance pool for each; query-churn sends a warm-up
// stream of fresh graphs; sweep-trials runs its grids once with one trial
// per job, compiling every core. The returned duration is the set-up time.
func setup(ctx context.Context, in *inputs) (*rig, time.Duration, error) {
	start := time.Now()
	r, err := newRig(serverOptions(in.workload))
	if err != nil {
		return nil, 0, err
	}
	switch in.workload {
	case wlHot:
		for _, q := range in.hot.warm {
			err = warmQuery(ctx, r, q)
			if err != nil {
				break
			}
		}
		if err == nil {
			err = warmConcurrent(ctx, r, 64, in.stream(0))
		}
	case wlChurn:
		err = warmConcurrent(ctx, r, 64, in.stream(saltWarm))
	case wlSweep:
		for _, spec := range sweepWarm(in.seed) {
			var rows []sweep.Result
			if rows, err = r.sweep(ctx, spec, nil); err == nil {
				err = checkRows(spec, rows, in.oracle, nil)
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		r.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return r, time.Since(start), nil
}

func warmQuery(ctx context.Context, r *rig, q *query) error {
	resp, _, err := r.query(ctx, q)
	if err != nil {
		return err
	}
	g, err := q.rebuild()
	if err != nil {
		return err
	}
	return checkAnswer(q, g, resp)
}

// warmConcurrent sends the first n requests of a stream from `clients`
// clients at once, opening every keep-alive connection and the per-core
// instance pools the timed window will use.
func warmConcurrent(ctx context.Context, r *rig, n int, next queryStream) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n && errs[c] == nil; i += clients {
				q, err := next(i)
				if err == nil {
					err = warmQuery(ctx, r, q)
				}
				errs[c] = err
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runWindow runs the workload's timed window on a warm rig. salt selects
// query-churn's stream, so windows of one run never resend a graph.
func runWindow(ctx context.Context, r *rig, in *inputs, dur time.Duration, salt uint64) (*window, error) {
	runtime.GC() // start every window from the same heap state
	if in.workload == wlSweep {
		return runSweeps(ctx, r, dur, in.specs, in.oracle), nil
	}
	return runQueries(ctx, r, dur, in.stream(salt))
}

func main() {
	workload := flag.String("workload", wlHot, "workload: "+wlHot+", "+wlChurn+" or "+wlSweep)
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ladder")
	flag.Parse()

	env := collectEnv()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("# GOMAXPROCS=%d nproc=%d go=%s cpu=%q clients=%d\n", env.GOMAXPROCS, env.NProc, env.GoVersion, env.CPUModel, clients)
	printSnapshotNote(os.Stdout)

	ctx := context.Background()
	in, err := generate(*workload, *seed)
	if err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace != 0 {
		res, err = runTraced(ctx, in, dur)
	} else {
		res, err = runUntraced(ctx, in, dur)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, in *inputs, dur time.Duration) (*result, error) {
	var setups []float64
	var r *rig
	spent := time.Duration(0)
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // every set-up starts from the same heap state
		var d time.Duration
		var err error
		if r, d, err = setup(ctx, in); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	firstOp := time.Since(procStart)
	w, err := runWindow(ctx, r, in, dur, saltTimed)
	r.close()
	if err != nil {
		return nil, err
	}

	ops := "queries"
	latWhat := "per query, client-side, send to last body byte"
	if in.workload == wlSweep {
		ops = "tester trials"
		latWhat = "per trial: each streamed row's server-side job time over its trials, counted once per trial"
	}
	tputs, p50s, p99s, minOps := w.segmentFigures(dur)
	m := map[string]metric{
		"throughput_ops_s": {median(tputs), "1/s"},
		"latency_p50_ms":   {median(p50s), "ms"},
		"latency_p99_ms":   {median(p99s), "ms"},
		"setup_s":          {median(setups), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MiB"},
		"allocs_per_op":    {float64(w.mallocs) / float64(max(w.attempted, 1)), "count"},
	}
	failedFrac := float64(w.failed) / float64(max(w.attempted, 1))

	fmt.Printf("# end-to-end, %s, %v window, %d %s attempted, %d failed (%d wrong answers)\n",
		in.workload, w.elapsed.Round(time.Millisecond), w.attempted, ops, w.failed, w.wrong)
	seg := fmt.Sprintf("median of %d %v segments", segments, dur/segments)
	fmt.Printf("%-18s %14.3f %-6s (%s per second, %s %s; whole window %.3f)\n",
		"throughput_ops_s", m["throughput_ops_s"].Value, "1/s", ops, seg, fmtList(tputs), w.throughput())
	fmt.Printf("%-18s %14.4f %-6s (%s; %s %s; whole window %.4f)\n",
		"latency_p50_ms", m["latency_p50_ms"].Value, "ms", latWhat, seg, fmtList(p50s), latQuantile(w.done, 0.5))
	fmt.Printf("%-18s %14.4f %-6s (%s; %s %s, each over >= %d samples; whole window %.4f)\n",
		"latency_p99_ms", m["latency_p99_ms"].Value, "ms", latWhat, seg, fmtList(p99s), minOps, latQuantile(w.done, 0.99))
	fmt.Printf("%-18s %14.4f %-6s (median of %d set-ups %v; process start to first timed op %v)\n",
		"setup_s", m["setup_s"].Value, "s", len(setups), fmtList(setups), firstOp.Round(time.Millisecond))
	fmt.Printf("%-18s %14.2f %-6s (getrusage max RSS of this process, which ran only %s)\n", "peak_rss_mb", m["peak_rss_mb"].Value, "MiB", in.workload)
	fmt.Printf("%-18s %14.2f %-6s (runtime Mallocs delta over the window / %s; process-wide: client and server)\n",
		"allocs_per_op", m["allocs_per_op"].Value, "count", ops)
	fmt.Printf("%-18s %14.6f %-6s (%d of %d %s failed, refused or answered wrong)\n", "failed_frac", failedFrac, "frac", w.failed, w.attempted, ops)
	for _, e := range w.errs {
		fmt.Println("# failure:", e)
	}
	return &result{Correct: w.wrong == 0, Attempted: w.attempted, Failed: w.failed, Metrics: m}, nil
}

// fmtList formats figures as a bracketed list for the report.
func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s + "]"
}
