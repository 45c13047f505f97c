package main

import "testing"

// TestParseBenchLineProcs: the -N suffix is stripped from the key and
// reported as GOMAXPROCS; go test prints no suffix at GOMAXPROCS=1.
func TestParseBenchLineProcs(t *testing.T) {
	for _, c := range []struct {
		line  string
		name  string
		procs int
	}{
		{"BenchmarkFoo/sub-w4-8 \t 10\t 100 ns/op\t 5 allocs/op", "BenchmarkFoo/sub-w4", 8},
		{"BenchmarkFoo/sub-w4 \t 10\t 100 ns/op\t 5 allocs/op", "BenchmarkFoo/sub-w4", 1},
	} {
		name, procs, res, ok := parseBenchLine(c.line)
		if !ok || name != c.name || procs != c.procs || res.NsPerOp != 100 || res.AllocsPerOp != 5 {
			t.Errorf("%q: got %q procs %d %+v ok=%v, want %q procs %d",
				c.line, name, procs, res, ok, c.name, c.procs)
		}
	}
}
