// Command benchdiff compares two benchmark snapshots produced by
// cmd/benchsnap (BENCH_1.json, BENCH_2.json, ...) and prints per-benchmark
// deltas for ns/op and allocs/op, so every PR's perf trajectory is one
// command away:
//
//	benchdiff                       # two latest BENCH_*.json in the cwd
//	benchdiff -dir path             # two latest in another directory
//	benchdiff OLD.json NEW.json     # explicit snapshots
//
// Benchmarks present in only one snapshot are listed as added/removed.
//
// By default the exit code is 0 whenever the inputs parse — the tool
// reports. With -max-allocs-regress=P (a percentage), allocs/op becomes a
// gate: any benchmark present in both snapshots whose allocs/op grew by
// more than P% fails the run with exit code 1. ns/op deltas are always
// informational — wall time is machine-noisy, allocation counts are not,
// so CI blocks on the latter only:
//
//	benchdiff -max-allocs-regress 5
//
// Benchmarks added or removed between snapshots are never gated. When the
// two snapshots were taken at different GOMAXPROCS (the "gomaxprocs"
// header cmd/benchsnap records), a notice says so: ns/op and some allocs/op
// figures depend on the worker count, so such a diff compares unlike runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// result mirrors cmd/benchsnap's per-benchmark layout.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type snapshot struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]result `json:"benchmarks"`
}

var snapPattern = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

func main() {
	dir := flag.String("dir", ".", "directory to scan for BENCH_<i>.json when no files are given")
	maxAllocsRegress := flag.Float64("max-allocs-regress", -1,
		"fail (exit 1) if any benchmark's allocs/op regresses by more than this percentage; negative disables the gate")
	flag.Parse()

	var oldPath, newPath string
	switch flag.NArg() {
	case 0:
		var err error
		oldPath, newPath, err = latestTwo(*dir)
		if err != nil {
			fatal(err)
		}
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "benchdiff: want zero or two snapshot arguments")
		os.Exit(2)
	}

	oldSnap, err := load(oldPath)
	if err != nil {
		fatal(err)
	}
	newSnap, err := load(newPath)
	if err != nil {
		fatal(err)
	}

	names := map[string]bool{}
	for n := range oldSnap.Benchmarks {
		names[n] = true
	}
	for n := range newSnap.Benchmarks {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	fmt.Printf("benchdiff: %s -> %s\n", filepath.Base(oldPath), filepath.Base(newPath))
	if oldSnap.GOMAXPROCS != newSnap.GOMAXPROCS {
		fmt.Printf("benchdiff: note: GOMAXPROCS differs (%s -> %s); the snapshots compare unlike runs\n",
			procs(oldSnap.GOMAXPROCS), procs(newSnap.GOMAXPROCS))
	}
	fmt.Printf("%-55s %15s %11s %15s %11s\n", "benchmark", "ns/op", "Δ", "allocs/op", "Δ")
	var gateFailures []string
	for _, n := range sorted {
		o, haveOld := oldSnap.Benchmarks[n]
		w, haveNew := newSnap.Benchmarks[n]
		switch {
		case !haveOld:
			fmt.Printf("%-55s %15s %11s %15s %11s\n", n,
				human(w.NsPerOp), "added", human(w.AllocsPerOp), "added")
		case !haveNew:
			fmt.Printf("%-55s %15s %11s %15s %11s\n", n,
				human(o.NsPerOp), "removed", human(o.AllocsPerOp), "removed")
		default:
			fmt.Printf("%-55s %15s %11s %15s %11s\n", n,
				arrow(o.NsPerOp, w.NsPerOp), delta(o.NsPerOp, w.NsPerOp),
				arrow(o.AllocsPerOp, w.AllocsPerOp), delta(o.AllocsPerOp, w.AllocsPerOp))
			if *maxAllocsRegress >= 0 && allocsRegress(o.AllocsPerOp, w.AllocsPerOp) > *maxAllocsRegress {
				gateFailures = append(gateFailures, fmt.Sprintf(
					"%s: allocs/op %s (%s), budget %+.1f%%",
					n, arrow(o.AllocsPerOp, w.AllocsPerOp),
					delta(o.AllocsPerOp, w.AllocsPerOp), *maxAllocsRegress))
			}
		}
	}
	if len(gateFailures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: allocs/op gate FAILED (%d benchmark(s) over the %+.1f%% budget):\n",
			len(gateFailures), *maxAllocsRegress)
		for _, f := range gateFailures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
}

// allocsRegress is the relative allocs/op growth in percent; going from 0
// to any positive count is an unbounded regression.
func allocsRegress(o, n float64) float64 {
	if n <= o {
		return 0
	}
	if o == 0 {
		return math.Inf(1)
	}
	return 100 * (n - o) / o
}

// latestTwo picks the two highest-numbered BENCH_<i>.json files in dir.
func latestTwo(dir string) (oldPath, newPath string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	type snap struct {
		idx  int
		path string
	}
	var snaps []snap
	for _, e := range entries {
		m := snapPattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		idx, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		snaps = append(snaps, snap{idx: idx, path: filepath.Join(dir, e.Name())})
	}
	if len(snaps) < 2 {
		return "", "", fmt.Errorf("benchdiff: need at least two BENCH_<i>.json in %s, found %d", dir, len(snaps))
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].idx < snaps[j].idx })
	return snaps[len(snaps)-2].path, snaps[len(snaps)-1].path, nil
}

func load(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchdiff: parsing %s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s has no benchmarks", path)
	}
	return &s, nil
}

// procs renders a snapshot's GOMAXPROCS; 0 means the snapshot predates
// the header.
func procs(n int) string {
	if n == 0 {
		return "unrecorded"
	}
	return strconv.Itoa(n)
}

// arrow renders "old -> new" compactly.
func arrow(o, n float64) string { return human(o) + "->" + human(n) }

// delta renders the relative change; negative is an improvement.
func delta(o, n float64) string {
	if o == 0 {
		if n == 0 {
			return "0%"
		}
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}

// human shortens large values (1234567 -> 1.23M).
func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == float64(int64(v)):
		return strconv.FormatInt(int64(v), 10)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
