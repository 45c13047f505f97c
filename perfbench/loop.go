package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
)

// window is the outcome of one timed window of a workload.
type window struct {
	attempted, failed int      // ops: queries, or tester trials on sweep-trials
	wrong             int      // failed ops whose answer the checker rejected
	done              []sample // completed ops: when, latency, weight
	elapsed           time.Duration
	mallocs           uint64
	errs              []string
	rows              [][]sweep.Result // sweep-trials: each spec's first-round rows
}

func (w *window) fail(wrong bool, err error) {
	w.failed++
	if wrong {
		w.wrong++
	}
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.wrong += o.wrong
	w.done = append(w.done, o.done...)
	for _, e := range o.errs {
		if len(w.errs) < 5 {
			w.errs = append(w.errs, e)
		}
	}
}

// sample is one completed op, or one sweep row standing for its trials:
// when it completed, relative to the window's start, its latency in ms
// (a row's per-trial mean), and how many ops it carries.
type sample struct {
	at  time.Duration
	lat float64
	ops int
}

// latQuantile is the q-quantile of per-op latency over samples, each
// counted once per op it carries.
func latQuantile(ss []sample, q float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	s := append([]sample(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].lat < s[j].lat })
	total := 0
	for _, x := range s {
		total += x.ops
	}
	want := int(math.Ceil(q * float64(total)))
	seen := 0
	for _, x := range s {
		if seen += x.ops; seen >= want {
			return x.lat
		}
	}
	return s[len(s)-1].lat
}

// opCount is the number of ops the samples carry.
func opCount(ss []sample) int {
	n := 0
	for _, s := range ss {
		n += s.ops
	}
	return n
}

// segments is how many equal time slices a window is cut into. The
// end-to-end speed figures are those of the median slice: a burst of
// interference from outside the process moves only the slices it falls
// in, and unlike the best slice (an extreme of ten noisy figures) the
// median needs no luck to repeat. Over ten seeds per workload on a 2-vCPU
// VM whose speed drifted 10-20% between runs, the median slice spread
// 7-16% (IQR over median) and the best slice 9-17%; latency_p99_ms on
// query-churn spread 7% against 12%.
const segments = 10

// segmentFigures returns each segment's good-op throughput and latency
// p50 and p99, and the smallest op count of a segment. Ops are attributed
// to the segment in which they completed.
func (w *window) segmentFigures(dur time.Duration) (tput, p50, p99 []float64, minOps int) {
	seg := dur / segments
	parts := make([][]sample, segments)
	for _, s := range w.done {
		if i := int(s.at / seg); i < segments {
			parts[i] = append(parts[i], s)
		}
	}
	minOps = -1
	for _, p := range parts {
		n := opCount(p)
		tput = append(tput, float64(n)/seg.Seconds())
		p50 = append(p50, latQuantile(p, 0.5))
		p99 = append(p99, latQuantile(p, 0.99))
		if minOps < 0 || n < minOps {
			minOps = n
		}
	}
	return tput, p50, p99, minOps
}

// throughput is good ops per second of the window.
func (w *window) throughput() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// pendingReject is a reject whose graph is rebuilt after the window, so
// the rebuild does not compete with the clients for CPU. It keeps only the
// stream index (the request is regenerated) and what checkAnswer reads, in
// a fixed-size pointer-free record that lives off the heap.
type pendingReject struct {
	i       int64
	n, m    int32
	witLen  int32
	witness [maxWitness]int64
}

// maxWitness is the longest witness a pending reject holds: the largest k
// a benchmark request uses. A longer witness is checked, and failed, at
// once.
const maxWitness = 9

// maxQPS bounds the queries one client can complete per second; it sizes
// the off-heap buffers of a window.
const maxQPS = 50000

// queryStream yields request i of a query workload.
type queryStream func(i int) (*query, error)

// runQueries drives `clients` closed-loop clients over keep-alive HTTP for
// dur. Each client sends its next request only after the previous answer
// has been read in full; latency runs from send to the last body byte.
// Answers are checked against their graph when the generator kept it;
// the rest are checked after the window. Samples and pending checks are
// kept off the heap (see offHeap).
func runQueries(ctx context.Context, r *rig, dur time.Duration, next queryStream) (*window, error) {
	var (
		seq     atomic.Int64
		wins    = make([]*window, clients)
		samples = make([]*offHeap[sample], clients)
		pending = make([]*offHeap[pendingReject], clients)
		wg      sync.WaitGroup
	)
	defer func() {
		for c := range samples {
			samples[c].free()
			pending[c].free()
		}
	}()
	capacity := int(dur.Seconds()*maxQPS) + 1024
	for c := 0; c < clients; c++ {
		var err error
		if samples[c], err = newOffHeap[sample](capacity); err != nil {
			return nil, err
		}
		if pending[c], err = newOffHeap[pendingReject](capacity); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &window{}
			wins[c] = w
			for time.Now().Before(deadline) {
				i := int(seq.Add(1) - 1)
				q, err := next(i)
				w.attempted++
				if err != nil {
					w.fail(false, err)
					continue
				}
				t0 := time.Now()
				resp, _, err := r.query(ctx, q)
				lat := time.Since(t0)
				if err != nil {
					w.fail(false, err)
					continue
				}
				switch {
				case q.g != nil || !resp.Rejected:
					if q.g != nil {
						err = checkAnswer(q, q.g, resp)
					}
				case len(resp.Witness) <= maxWitness:
					p := pendingReject{i: int64(i), n: int32(resp.N), m: int32(resp.M), witLen: int32(len(resp.Witness))}
					copy(p.witness[:], resp.Witness)
					if !pending[c].add(p) {
						w.fail(false, fmt.Errorf("more than %d rejects to check: raise maxQPS", capacity))
						return
					}
				default:
					err = fmt.Errorf("witness %v is longer than any k the benchmark asks for", resp.Witness)
				}
				if err != nil {
					w.fail(true, fmt.Errorf("query %s: %w", q.body, err))
					continue
				}
				if !samples[c].add(sample{at: time.Since(start), lat: float64(lat) / float64(time.Millisecond), ops: 1}) {
					w.fail(false, fmt.Errorf("more than %d queries in the window: raise maxQPS", capacity))
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	total := &window{elapsed: elapsed, mallocs: ms1.Mallocs - ms0.Mallocs}
	for c, w := range wins {
		total.merge(w)
		total.done = append(total.done, samples[c].recs...)
	}
	for c := range pending {
		for _, p := range pending[c].recs {
			q, err := next(int(p.i))
			if err != nil {
				return nil, err
			}
			g, err := q.rebuild()
			if err != nil {
				return nil, err
			}
			resp := serve.QueryResponse{Rejected: true, Witness: p.witness[:p.witLen], N: int(p.n), M: int(p.m)}
			if err := checkAnswer(q, g, &resp); err != nil {
				total.fail(true, fmt.Errorf("query %s: %w", q.body, err))
			}
		}
	}
	return total, nil
}

// runSweeps repeats the sweep-trials round until dur has passed (a round
// that has started runs to its end). Every tester trial is one op; a
// sweep that fails or streams a wrong row fails all its trials. Latency is
// per trial, per job: the row's server-side job time over its trials.
func runSweeps(ctx context.Context, r *rig, dur time.Duration, specs []*sweep.Spec, or sweepOracle) *window {
	w := &window{}
	first := make([][]sweep.Result, len(specs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < dur {
		for i, spec := range specs {
			jobs, _ := spec.Jobs()
			trials := len(jobs) * spec.Trials
			w.attempted += trials
			var arrived []sample
			rows, err := r.sweep(ctx, spec, func(row *sweep.Result) {
				ms := float64(row.Elapsed) / float64(time.Millisecond) / float64(row.Trials)
				arrived = append(arrived, sample{at: time.Since(start), lat: ms, ops: row.Trials})
			})
			if err == nil {
				err = checkRows(spec, rows, or, first[i])
				if err != nil {
					w.failed += trials - 1
					w.wrong += trials - 1
					w.fail(true, err)
					continue
				}
			}
			if err != nil {
				w.failed += trials - 1
				w.fail(false, err)
				continue
			}
			if first[i] == nil {
				first[i] = rows
			}
			w.done = append(w.done, arrived...)
		}
	}
	w.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.rows = first
	return w
}
