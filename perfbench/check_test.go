package main

import (
	"context"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
	"cycledetect/internal/xrand"
)

// c6chord is the 6-cycle 0..5 plus the chord {0,3}: it has 4-cycles and a
// 6-cycle but no triangle.
func c6chord() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddCycle(0, 1, 2, 3, 4, 5)
	b.AddEdge(0, 3)
	return b.Build()
}

func TestCheckWitnessRejectsForgeries(t *testing.T) {
	g := c6chord()
	if err := checkWitness(g, 4, []int64{0, 1, 2, 3}); err != nil {
		t.Fatalf("real 4-cycle rejected: %v", err)
	}
	forged := map[string][]int64{
		"too short":    {0, 1, 2},
		"repeats":      {0, 1, 0, 3},
		"not an edge":  {0, 1, 2, 4},
		"out of range": {0, 1, 2, 6},
		"no closure":   {1, 2, 3, 4}, // {4,1} is not an edge
	}
	for name, w := range forged {
		if err := checkWitness(g, 4, w); err == nil {
			t.Errorf("%s: forged witness %v accepted", name, w)
		}
	}
}

func TestCheckAnswerRejectsWrongAnswers(t *testing.T) {
	g := c6chord()
	detect := &query{g: g, wantReject: false, req: serve.QueryRequest{Op: serve.OpDetect, K: 4, Edge: &[2]int64{1, 2}}}
	wrong := &serve.QueryResponse{N: 6, M: 7, Rejected: true, Witness: []int64{0, 1, 2, 3}}
	if err := checkAnswer(detect, g, wrong); err == nil {
		t.Error("detect answer contradicting the oracle accepted")
	}
	free := &query{g: g, cycleFree: true, req: serve.QueryRequest{Op: serve.OpTest, K: 3}}
	if err := checkAnswer(free, g, &serve.QueryResponse{N: 6, M: 7, Rejected: true, Witness: []int64{0, 1, 2}}); err == nil {
		t.Error("reject of a C3-free graph accepted")
	}
	if err := checkAnswer(free, g, &serve.QueryResponse{N: 6, M: 7}); err != nil {
		t.Errorf("accept of a C3-free graph rejected: %v", err)
	}
}

func TestCheckRowsRejectsTreeReject(t *testing.T) {
	spec := &sweep.Spec{Graphs: []sweep.GraphSpec{{Family: "tree", N: 16}}, K: []int{4}, Eps: []float64{0.1}, Trials: 2}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs, _ := spec.Jobs()
	row := sweep.Result{Job: jobs[0], Trials: 2, Rejects: 1}
	or := sweepOracle{oracleKey(jobs[0].Graph, 4): false}
	if err := checkRows(spec, []sweep.Result{row}, or, nil); err == nil {
		t.Error("a tree row with rejects passed the checker")
	}
	row.Rejects = 0
	if err := checkRows(spec, []sweep.Result{row}, or, nil); err != nil {
		t.Errorf("a clean tree row failed the checker: %v", err)
	}
}

// TestNodeDriverMatchesBSP checks the sequential driver against the bsp
// engine on a tester (with node reuse across runs) and a detector.
func TestNodeDriverMatchesBSP(t *testing.T) {
	g := graph.ConnectedGNM(40, 120, xrand.New(7))
	comp, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := comp.NewInstance(network.InstanceOptions{Engine: network.EngineBSP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	d := newNodeDriver(comp)
	e := g.Edges()[3]
	progs := []network.Program{
		&core.Tester{K: 5, Reps: 2},
		&core.EdgeDetector{K: 6, U: int64(e.U), V: int64(e.V)},
	}
	for _, p := range progs {
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := inst.RunProgramCtx(context.Background(), p, seed)
			if err != nil {
				t.Fatal(err)
			}
			cp := &capture{}
			dr := d.run(p, seed, cp)
			if err := sameRun(dr, res.Stats, core.Summarize(res.Outputs, res.IDs)); err != nil {
				t.Fatalf("%T seed %d: %v", p, seed, err)
			}
			echo, err := comp.NewInstance(network.InstanceOptions{Engine: network.EngineBSP, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			eres, err := echo.RunProgramCtx(context.Background(), newEchoProgram(cp), 0)
			echo.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRun(&driverRun{stats: cloneStats(eres.Stats), decision: dr.decision}, dr.stats, dr.decision); err != nil {
				t.Fatalf("%T seed %d: echo traffic: %v", p, seed, err)
			}
			if _, err := newWireReplay(cp.checks); err != nil {
				t.Fatal(err)
			}
		}
	}
}
