package core

import (
	"fmt"
	"strings"

	"cycledetect/internal/network"
	"cycledetect/internal/trace"
	"cycledetect/internal/wire"
)

// EdgeDetector is Phase 2 in isolation: the deterministic distributed check
// for "does a k-cycle pass through the edge {U, V}?" of §3.2–3.4. It runs in
// exactly ⌊k/2⌋ rounds, needs no randomness and no ε-farness assumption —
// a single k-cycle through the edge is always detected (Lemma 2), and a
// reject always exhibits a real cycle (1-sidedness).
//
// U and V are node identifiers; the detector is well-defined even if {U,V}
// is not an edge (then nothing can be detected, since seeds never meet).
type EdgeDetector struct {
	K    int
	U, V ID
	// Mode selects pruned (Algorithm 1) or naive forwarding.
	Mode Mode
	// Trace, when non-nil, records every send and detection for the
	// Figure-1 walkthrough.
	Trace *trace.Log
}

var (
	_ network.Program  = (*EdgeDetector)(nil)
	_ network.Rebinder = (*EdgeDetector)(nil)
)

// Rounds returns ⌊k/2⌋, independent of the network size (Theorem 1).
func (d *EdgeDetector) Rounds(n, m int) int { return d.K / 2 }

// check panics on parameters no run can use, before any node is bound.
func (d *EdgeDetector) check() {
	if d.K < 3 {
		d.invalid()
	}
}

//ckvet:allocs invalid-program panic, the run never starts
func (d *EdgeDetector) invalid() {
	panic(fmt.Sprintf("core: EdgeDetector needs k >= 3, got %d", d.K))
}

// NewNode builds the per-node state.
func (d *EdgeDetector) NewNode(info network.NodeInfo) network.Node {
	d.check()
	n := &node{}
	n.bindDetector(d, info)
	return n
}

// Rebind implements network.Rebinder: it re-binds a node of a previous
// run — of any Tester or EdgeDetector — to this detector, keeping its
// buffers. The node ends up as NewNode(info) would have built it.
//
//ckvet:allocfree
func (d *EdgeDetector) Rebind(nd network.Node, info network.NodeInfo) bool {
	n, ok := nd.(*node)
	if !ok {
		return false
	}
	d.check()
	n.bindDetector(d, info)
	return true
}

// bindDetector binds the node to d for a fresh run. The detector is
// deterministic, so binding is the whole initialization: the check for
// {U, V} starts here, seeded by the endpoints that really share the edge.
//
//ckvet:allocfree
func (n *node) bindDetector(d *EdgeDetector, info network.NodeInfo) {
	n.cs.prealloc(d.K, info.Degree())
	seeder := (info.ID == d.U && hasNeighbor(info.NeighborIDs, d.V)) ||
		(info.ID == d.V && hasNeighbor(info.NeighborIDs, d.U))
	n.info = info
	n.tester, n.det = nil, d
	n.k = d.K
	n.active, n.rejected, n.witness = false, false, nil
	n.metrics = NodeMetrics{}
	n.cs.reset(d.K, d.U, d.V, 0, info.ID, seeder, d.Mode)
}

func (n *node) detSend(round int, out [][]byte) {
	cnt := n.cs.sendSeqs(round)
	n.observeSend(round, cnt)
	if cnt == 0 {
		return
	}
	n.checkBuf = wire.AppendCheckArena(n.checkBuf[:0], n.cs.u, n.cs.v, 0, &n.cs.sent)
	for p := range out {
		out[p] = n.checkBuf
	}
	if n.det.Trace != nil {
		n.det.Trace.Add(round, n.info.ID, "send", "broadcasts %s", formatArena(&n.cs.sent))
	}
}

func (n *node) detReceive(round int, in [][]byte) {
	for _, payload := range in {
		if payload == nil {
			continue
		}
		// Malformed traffic cannot make a 1-sided tester reject; drop it.
		// A bad header is skipped here; a bad body is rolled back inside
		// absorbView, which is the same drop.
		v, err := wire.ParseCheck(payload)
		if err != nil {
			continue
		}
		if !n.cs.sameEdge(v.U, v.V) {
			continue
		}
		n.cs.absorbView(round, &v)
	}
	if n.det.Trace != nil && round == n.cs.recvRound && n.cs.recv.Len() > 0 {
		n.det.Trace.Add(round, n.info.ID, "recv", "holds %s", formatArena(&n.cs.recv))
	}
}

// detOutput runs the detector's final check into rejected/witness.
func (n *node) detOutput() {
	n.rejected, n.witness = n.cs.detect()
	if n.rejected && n.det.Trace != nil {
		n.det.Trace.Add(n.k/2, n.info.ID, "reject", "detects C%d %v", n.k, n.witness)
	}
}

func hasNeighbor(neighbors []ID, id ID) bool {
	for _, n := range neighbors {
		if n == id {
			return true
		}
	}
	return false
}

func formatArena(a *wire.SeqArena) string {
	parts := make([]string, a.Len())
	for i := range parts {
		s := a.Seq(i)
		elems := make([]string, len(s))
		for j, id := range s {
			elems[j] = fmt.Sprint(id)
		}
		parts[i] = "(" + strings.Join(elems, ",") + ")"
	}
	return "{" + strings.Join(parts, " ") + "}"
}
