package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// envInfo is the machine and toolchain context every report records, so a
// figure is never read without the hardware it was measured on.
type envInfo struct {
	GOMAXPROCS int
	NProc      int
	GoVersion  string
	CPUModel   string
}

func collectEnv() envInfo {
	return envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown (" + runtime.GOARCH + ")"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown (" + runtime.GOARCH + ")"
}

// peakRSSMB is the process's maximum resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printSnapshotNote prints a few ns/op figures from the newest committed
// BENCH_<n>.json in the checkout root. They were measured on other
// machines at other times, one sample each: informational only, never a
// baseline for this run.
func printSnapshotNote(w io.Writer) {
	paths, _ := filepath.Glob("BENCH_*.json")
	num := regexp.MustCompile(`BENCH_(\d+)\.json$`)
	best, bestN := "", -1
	for _, p := range paths {
		if m := num.FindStringSubmatch(p); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil && n > bestN {
				best, bestN = p, n
			}
		}
	}
	if best == "" {
		return
	}
	raw, err := os.ReadFile(best)
	if err != nil {
		return
	}
	var snap struct {
		CPU        string `json:"cpu"`
		Benchmarks map[string]struct {
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	if json.Unmarshal(raw, &snap) != nil {
		return
	}
	var names []string
	for name := range snap.Benchmarks {
		if strings.Contains(name, "TesterByK") || strings.Contains(name, "ServeConcurrent") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s (other machine: %q; one sample each; informational, not comparable to this run):\n", best, snap.CPU)
	for _, name := range names {
		fmt.Fprintf(w, "#   %-48s %12.0f ns/op\n", name, snap.Benchmarks[name].NsPerOp)
	}
}
