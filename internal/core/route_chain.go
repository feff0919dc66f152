package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/superring"
)

// routeChain threads the concrete s-t path through an anchored block
// chain. It mirrors RouteR4 with three differences: the first block's
// entry is the source vertex itself, the last block's exit is the
// target, and — when s and t share a partite set — exactly one block is
// routed with an odd vertex count to fix the global parity (preferring
// a faulty block whose fault lies on the other side, which then sheds
// only its fault). Like RouteR4 it runs as a core.op.route operation
// when cfg.Obs is set.
func routeChain(chain *superring.Chain, fs *faults.Set, s, t perm.Code, cfg Config) ([]perm.Code, error) {
	pats := chain.Vertices()
	m := len(pats)
	n := chain.N()
	plans, err := newBlockPlans(pats, fs)
	if err != nil {
		return nil, err
	}
	if !plans[0].block.Contains(s) || !plans[m-1].block.Contains(t) {
		return nil, fmt.Errorf("core: internal: chain anchors misplaced")
	}
	// The source cannot double as the first exit, nor the target as the
	// last entry.
	cands, err := healthyJunctions(pats, m-1, fs, func(k int, j junction) bool {
		return !(k == 0 && j.u == s) && !(k == m-2 && j.w == t)
	})
	if err != nil {
		return nil, err
	}

	needOdd := s.Parity(n) == t.Parity(n)
	op := cfg.Obs.StartOp("core.op.route")
	defer op.Done()
	in := newInstr(cfg.Obs, n, op)
	for _, odd := range oddBlockCandidates(plans, n, s, needOdd) {
		for k, p := range plans {
			p.targets = chainTargets(k == odd, len(p.avoidV), cfg.BestEffort)
		}
		if err := chooseJunctions(plans, cands, &chainEnds{s: s, t: t}, in); err == nil {
			path, _, err := assemble(plans, cfg, in)
			return path, err
		}
	}
	return nil, fmt.Errorf("core: no odd-block designation routes the chain (s, t %v-parity)", needOdd)
}

// oddBlockCandidates orders the blocks to try as the designated
// odd-length block: none when the endpoints already differ in parity;
// otherwise faulty blocks whose fault sits on the other side (those
// UPGRADE to 23 vertices), then healthy blocks (23 with one healthy
// vertex shed), then the remaining faulty blocks (21).
func oddBlockCandidates(plans []*blockPlan, n int, s perm.Code, needOdd bool) []int {
	if !needOdd {
		return []int{-1}
	}
	var upgrade, healthy, downgrade []int
	for k, p := range plans {
		switch {
		case len(p.avoidV) == 1 && p.avoidV[0].Parity(n) != s.Parity(n):
			upgrade = append(upgrade, k)
		case len(p.avoidV) == 0:
			healthy = append(healthy, k)
		default:
			downgrade = append(downgrade, k)
		}
	}
	out := append(upgrade, healthy...)
	return append(out, downgrade...)
}

// chainTargets is the per-block length policy for chains.
func chainTargets(odd bool, vf int, bestEffort bool) []int {
	base := blockOrder - 2*vf
	if odd {
		// One vertex more than the even yield when the block can shed
		// only its fault, one fewer otherwise; the search tries both
		// (a healthy block has no fault to shed, so only base-1 = 23 is
		// within the block order).
		ts := []int{}
		if base+1 <= blockOrder {
			ts = append(ts, base+1)
		}
		ts = append(ts, base-1)
		if bestEffort {
			for t := base - 3; t >= 1; t -= 2 {
				ts = append(ts, t)
			}
		}
		return ts
	}
	if !bestEffort {
		return []int{base}
	}
	var ts []int
	for t := base; t >= 2; t -= 2 {
		ts = append(ts, t)
	}
	return ts
}
