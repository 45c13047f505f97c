package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/network"
	"cycledetect/internal/wire"
	"cycledetect/internal/xrand"
)

// maxLadderRounds is the number of per-round receive slots the ladder
// reports: r1 is the Phase-1 rank round, r(t+1) is Phase-2 round t, so
// k = 9 (four Phase-2 rounds) fills r1..r5.
const maxLadderRounds = 5

// nodeDriver runs a node program sequentially, one phase loop per round,
// outside any engine: the same per-node coin streams (SeedStream(seed, ID)),
// port tables and delivery (through RevPorts) as the BSP engine, with the
// Send and Receive loops timed apart. Its results must equal the engine's
// byte for byte before its times count.
type nodeDriver struct {
	c     *network.Compiled
	rngs  []xrand.RNG
	nodes []network.Node
	last  network.Program
	out   [][][]byte
	in    [][][]byte
	stats network.Stats
	outs  []any
}

func newNodeDriver(c *network.Compiled) *nodeDriver {
	g := c.Graph()
	d := &nodeDriver{c: c, rngs: make([]xrand.RNG, g.N()), nodes: make([]network.Node, g.N()), outs: make([]any, g.N())}
	d.out = make([][][]byte, g.N())
	d.in = make([][][]byte, g.N())
	for v := range d.out {
		d.out[v] = make([][]byte, g.Degree(v))
		d.in[v] = make([][]byte, g.Degree(v))
	}
	return d
}

// driverRun is one driven run's outputs and phase times.
type driverRun struct {
	stats    network.Stats
	decision core.Decision
	send     time.Duration
	recv     [maxLadderRounds]time.Duration // by local round, see maxLadderRounds
	recvAll  time.Duration
}

// capture collects what the wire and echo layers replay: every delivered
// Phase-2 (check) payload, and the size of every payload by (round,
// sender, port).
type capture struct {
	checks [][]byte
	sizes  [][]int32 // [round-1][offset(v)+port]
	off    []int
}

// localRound maps a program round to its ladder slot: 0 for a tester's
// Phase-1 round, t for Phase-2 round t (the detector runs Phase 2 only).
func localRound(p network.Program, round int) int {
	if t, ok := p.(*core.Tester); ok {
		return (round - 1) % t.RoundsPerRep()
	}
	return round
}

// run drives p with the given seed. When cp is non-nil the run also
// records the payloads the wire and echo layers replay.
func (d *nodeDriver) run(p network.Program, seed uint64, cp *capture) *driverRun {
	g, topo := d.c.Graph(), d.c.Topology()
	n := g.N()
	rounds := p.Rounds(n, g.M())
	if d.stats.Rounds != rounds {
		d.stats = network.NewStats(rounds)
	} else {
		d.stats.Reset()
	}
	ids := topo.IDs()
	reuse := d.last == p
	for v := 0; v < n; v++ {
		d.rngs[v].SeedStream(seed, uint64(ids[v]))
		if rn, ok := d.nodes[v].(network.ReusableNode); ok && reuse {
			rn.Reset(topo.Info(v, &d.rngs[v]))
		} else {
			d.nodes[v] = p.NewNode(topo.Info(v, &d.rngs[v]))
		}
	}
	d.last = p
	if cp != nil {
		cp.off = make([]int, n+1)
		for v := 0; v < n; v++ {
			cp.off[v+1] = cp.off[v] + g.Degree(v)
		}
		cp.sizes = make([][]int32, rounds)
	}
	dr := &driverRun{}
	for r := 1; r <= rounds; r++ {
		t0 := time.Now()
		for v := 0; v < n; v++ {
			clear(d.out[v])
			d.nodes[v].Send(r, d.out[v])
		}
		t1 := time.Now()
		dr.send += t1.Sub(t0)
		if cp != nil {
			cp.sizes[r-1] = make([]int32, cp.off[n])
		}
		for v := 0; v < n; v++ {
			ns := g.Neighbors(v)
			rp := topo.RevPorts(v)
			for pt := range d.in[v] {
				u := int(ns[pt])
				payload := d.out[u][rp[pt]]
				d.in[v][pt] = payload
				if payload == nil {
					continue
				}
				d.stats.Observe(r, 8*len(payload))
				if cp != nil {
					cp.sizes[r-1][cp.off[u]+int(rp[pt])] = int32(len(payload))
					if wire.Kind(payload) == wire.KindCheck {
						cp.checks = append(cp.checks, bytes.Clone(payload))
					}
				}
			}
		}
		t2 := time.Now()
		for v := 0; v < n; v++ {
			d.nodes[v].Receive(r, d.in[v])
			clear(d.in[v])
		}
		rd := time.Since(t2)
		dr.recvAll += rd
		if l := localRound(p, r); l < maxLadderRounds {
			dr.recv[l] += rd
		}
	}
	for v := 0; v < n; v++ {
		d.outs[v] = d.nodes[v].Output()
	}
	d.stats.Finalize()
	dr.stats = cloneStats(d.stats)
	dr.decision = core.Summarize(d.outs, ids)
	return dr
}

func cloneStats(s network.Stats) network.Stats {
	s.PerRoundMaxBits = append([]int(nil), s.PerRoundMaxBits...)
	s.PerRoundBits = append([]int64(nil), s.PerRoundBits...)
	s.PerRoundMessages = append([]int64(nil), s.PerRoundMessages...)
	return s
}

// sameRun compares a driven run with the engine's: Stats and the whole
// core.Summarize decision must be identical.
func sameRun(dr *driverRun, stats network.Stats, dec core.Decision) error {
	if !reflect.DeepEqual(dr.stats, stats) {
		return fmt.Errorf("node driver stats %+v differ from the bsp engine's %+v", dr.stats, stats)
	}
	if !reflect.DeepEqual(dr.decision, dec) {
		return fmt.Errorf("node driver decision %+v differs from the bsp engine's %+v", dr.decision, dec)
	}
	return nil
}

// echoProgram replays a captured run's traffic shape — the same round
// count and the same payload size on every (round, sender, port) — with
// no node logic, so running it on an engine measures the engine alone.
// The benchmark's graphs use the default ID assignment, so a node's ID
// is its vertex index.
type echoProgram struct {
	rounds int
	cp     *capture
	zeros  []byte
}

func newEchoProgram(cp *capture) *echoProgram {
	maxLen := int32(0)
	for _, row := range cp.sizes {
		for _, s := range row {
			maxLen = max(maxLen, s)
		}
	}
	return &echoProgram{rounds: len(cp.sizes), cp: cp, zeros: make([]byte, maxLen)}
}

func (e *echoProgram) Rounds(n, m int) int { return e.rounds }

func (e *echoProgram) NewNode(info network.NodeInfo) network.Node {
	return &echoNode{e: e, off: e.cp.off[info.ID]}
}

type echoNode struct {
	e   *echoProgram
	off int
}

func (n *echoNode) Send(round int, out [][]byte) {
	sizes := n.e.cp.sizes[round-1][n.off:]
	for p := range out {
		if s := sizes[p]; s > 0 {
			out[p] = n.e.zeros[:s]
		}
	}
}

func (n *echoNode) Receive(round int, in [][]byte) {}
func (n *echoNode) Output() any                    { return nil }
func (n *echoNode) Reset(info network.NodeInfo)    {}

// wireReplay times the wire codec over captured Phase-2 payloads: decode is
// what a receiver does with an absorbed check (ParseCheck, Validate, and
// an Iter over every sequence); encode is AppendCheck of the decoded
// message, which must reproduce the payload byte for byte.
type wireReplay struct {
	payloads [][]byte
	decoded  []*wire.Check
}

func newWireReplay(payloads [][]byte) (*wireReplay, error) {
	w := &wireReplay{payloads: payloads}
	for _, p := range payloads {
		c, err := wire.DecodeCheck(p)
		if err != nil {
			return nil, fmt.Errorf("wire: captured payload does not decode: %w", err)
		}
		if !bytes.Equal(wire.AppendCheck(nil, c), p) {
			return nil, fmt.Errorf("wire: AppendCheck does not reproduce a captured payload")
		}
		w.decoded = append(w.decoded, c)
	}
	return w, nil
}

// decodeAll decodes every payload once and returns the IDs read, so the
// work cannot be optimised away.
func (w *wireReplay) decodeAll(dst []wire.ID) (int, error) {
	ids := 0
	for _, p := range w.payloads {
		v, err := wire.ParseCheck(p)
		if err != nil {
			return ids, err
		}
		if err := v.Validate(); err != nil {
			return ids, err
		}
		it := v.Iter()
		for {
			var ok bool
			if dst, ok = it.Next(dst[:0]); !ok {
				break
			}
			ids += len(dst)
		}
		if it.Err() != nil {
			return ids, it.Err()
		}
	}
	return ids, nil
}

func (w *wireReplay) encodeAll(buf []byte) int {
	total := 0
	for _, c := range w.decoded {
		buf = wire.AppendCheck(buf[:0], c)
		total += len(buf)
	}
	return total
}

func (w *wireReplay) payloadBytes() int {
	total := 0
	for _, p := range w.payloads {
		total += len(p)
	}
	return total
}
