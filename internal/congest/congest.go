// Package congest simulates the CONGEST model of distributed computing
// (Peleg 2000), the model the paper's algorithm is designed for (§2.1).
//
// The network is a connected simple graph. Nodes hold distinct O(log n)-bit
// identifiers, run the same program, and proceed in synchronous rounds; in
// each round a node performs local computation, sends one message of
// O(log n) bits along each incident edge, and receives the messages sent by
// its neighbors in the same round.
//
// Two execution engines implement identical semantics:
//
//   - Run: a lockstep bulk-synchronous engine (reference implementation);
//   - RunChannels: one goroutine per node with a buffered channel per
//     directed edge (an α-synchronizer), demonstrating the natural mapping
//     of CONGEST rounds onto goroutines and channels.
//
// Both engines account for every message's size in bits, so experiments can
// verify the O(log n) bandwidth claim, and can optionally enforce a hard
// per-message budget. Error semantics are engine-independent too: node
// panics are isolated into errors, and a budget violation aborts the run
// with the earliest-round (ties: lowest-vertex) violation.
//
// This package is the model's vocabulary and the one-shot entry points;
// the engine loops themselves live in internal/network, which compiles a
// reusable Network handle once and runs many programs against it. Run,
// RunChannels and RunWith are thin wrappers that build a single-use Network
// and execute one program on it, so each engine loop — bandwidth
// accounting, panic isolation, error selection included — exists in
// exactly one place.
package congest

import (
	"fmt"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
)

// The model vocabulary is defined in internal/network (the engines' home)
// and re-exported here unchanged; congest.X and network.X are the same
// types, so values flow freely between the one-shot and reusable APIs.
type (
	// ID is a node identifier as visible to the algorithm.
	ID = network.ID
	// NodeInfo is the initial knowledge of a node (see network.NodeInfo).
	NodeInfo = network.NodeInfo
	// Node is the per-node state of a running program (see network.Node).
	Node = network.Node
	// Program constructs per-node state and declares the round count.
	Program = network.Program
	// ReusableNode is the optional Node extension for build-once /
	// run-many execution (see network.ReusableNode).
	ReusableNode = network.ReusableNode
	// Rebinder is the optional Program extension that re-binds a warm
	// instance's nodes to a different program (see network.Rebinder).
	Rebinder = network.Rebinder
	// Config controls a simulation run (see network.Config).
	Config = network.Config
	// Engine selects an execution engine by name.
	Engine = network.Engine
	// Stats aggregates message traffic over a run (see network.Stats).
	Stats = network.Stats
	// Result is the outcome of a run (see network.Result).
	Result = network.Result
	// ErrBandwidth reports a message that exceeded the configured budget.
	ErrBandwidth = network.ErrBandwidth
	// ErrCanceled reports a run aborted by its context at a round barrier
	// (see network.Instance.RunProgramCtx).
	ErrCanceled = network.ErrCanceled
	// Topology is the precomputed port structure shared by both engines.
	Topology = network.Topology
	// WorkerPool is the persistent worker pool behind the BSP engine.
	WorkerPool = network.WorkerPool
)

// Engines.
const (
	EngineBSP      = network.EngineBSP
	EngineChannels = network.EngineChannels
)

// NewStats returns a zeroed Stats with per-round arrays sized for the given
// round count.
func NewStats(rounds int) Stats { return network.NewStats(rounds) }

// NewStatsSlab returns count Stats whose per-round arrays are carved from
// shared backing slices (see network.NewStatsSlab).
func NewStatsSlab(count, rounds int) []Stats { return network.NewStatsSlab(count, rounds) }

// BuildTopology validates cfg.IDs and precomputes the port structure for g.
func BuildTopology(g *graph.Graph, cfg *Config) (*Topology, error) {
	return network.BuildTopology(g, cfg)
}

// NewWorkerPool spawns workers goroutines sharding the range [0, n).
func NewWorkerPool(workers, n int) *WorkerPool { return network.NewWorkerPool(workers, n) }

// Run executes program p on graph g under the lockstep bulk-synchronous
// engine: every node's Send for round r completes before any delivery, and
// every delivery completes before any Receive returns control to round r+1.
// This is the reference engine; RunChannels must produce identical results.
//
// Run is a thin wrapper over internal/network: it compiles a single-use
// Network and executes one program on it, so the engine loop exists only
// there. Sweep-shaped workloads that run many programs on one graph should
// build the Network themselves and reuse it (see internal/network and
// internal/sweep).
func Run(g *graph.Graph, p Program, cfg Config) (*Result, error) {
	return runOnce(EngineBSP, g, p, cfg)
}

// RunChannels executes program p with one goroutine per node and one
// capacity-1 channel per directed edge — the natural Go rendering of a
// CONGEST network, and an α-synchronizer in disguise. Results are identical
// to Run's; see the engine loop in internal/network for the
// synchronization argument.
func RunChannels(g *graph.Graph, p Program, cfg Config) (*Result, error) {
	return runOnce(EngineChannels, g, p, cfg)
}

// RunWith dispatches to the selected engine ("" means EngineBSP).
func RunWith(engine Engine, g *graph.Graph, p Program, cfg Config) (*Result, error) {
	switch engine {
	case EngineBSP, EngineChannels, "":
		return runOnce(engine, g, p, cfg)
	default:
		return nil, fmt.Errorf("congest: unknown engine %q", engine)
	}
}

// runOnce is the single-use path behind the one-shot entry points: build a
// Network, run one program, release the engine. The Result stays valid
// after Close (only the engine goroutines are released), and nothing
// overwrites it — the Network is dropped here — so the caller owns it.
func runOnce(engine Engine, g *graph.Graph, p Program, cfg Config) (*Result, error) {
	nw, err := network.New(g, network.Options{
		Engine:        engine,
		IDs:           cfg.IDs,
		BandwidthBits: cfg.BandwidthBits,
	})
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	return nw.RunProgram(p, cfg.Seed)
}
