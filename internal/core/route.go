package core

import (
	"fmt"
	"sync"

	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/substar"
	"repro/internal/superring"
)

// blockOrder is the number of vertices per S4 block.
const blockOrder = pathsearch.BlockOrder

// blockPlan collects everything needed to route one block of the R4.
type blockPlan struct {
	block   *pathsearch.Block
	avoidV  []perm.Code    // faulty vertices inside the block
	avoidE  [][2]perm.Code // faulty edges interior to the block
	targets []int          // acceptable path lengths, best first

	// Chosen by the junction search:
	entry, exit perm.Code
	length      int // the target that succeeded
}

// junction is one candidate crossing edge between consecutive blocks:
// exit u in block k, entry w in block k+1.
type junction struct {
	u, w perm.Code
}

// routed is the skeleton-level outcome of one RouteR4 run: the
// per-block state (entry/exit junctions, achieved lengths) and the
// block-to-ring-segment offsets. It deliberately does NOT hold the
// ring: once every junction is fixed, each block's path is a
// deterministic function of its (entry, exit, avoid, length) tuple —
// the memoized canonical-S4 search replays it bit-identically — so the
// cycle can be re-materialized block by block on demand. Plan keeps
// the routed alive so Repair can re-route a single block and splice
// its segment in place, and so RingCursor can stream the ring at
// O(#blocks) memory. Callers that want the flat []perm.Code run
// assemble over it.
type routed struct {
	plans   []*blockPlan
	offsets []int // block k occupies ring[offsets[k]:offsets[k+1]]
}

// ringLen returns the total ring length implied by the block lengths.
func (rt *routed) ringLen() int { return rt.offsets[len(rt.offsets)-1] }

// RouteR4 is the executable Lemma 7: given an R4 with (P1)(P2)(P3), it
// selects a healthy junction edge across every superedge and threads a
// healthy path of the per-block target length through every block,
// producing the final ring. Junction selection is a sequential scan with
// backtracking; (P2) guarantees (via Lemmas 1, 5 and 6) that a valid
// combination exists, and the exact block search makes each feasibility
// test cheap and memoized.
//
// targetsFor maps a block's vertex-fault count to the acceptable path
// lengths, best first. RouteR4 is exported for internal/baseline, which
// routes its own R4 variants through the same engine; library users
// should call Embed. With cfg.Obs set the call is its own core.op.route
// operation, the parent of its junction and route phase spans.
func RouteR4(r4 *superring.Ring, fs *faults.Set, targetsFor func(int) []int, cfg Config) ([]perm.Code, error) {
	op := cfg.Obs.StartOp("core.op.route")
	defer op.Done()
	in := newInstr(cfg.Obs, fs.N(), op)
	rt, err := routeR4x(r4, fs, func(_, vf int) []int { return targetsFor(vf) }, nil, cfg, in)
	if err != nil {
		return nil, err
	}
	ring, _, err := assemble(rt.plans, cfg, in)
	return ring, err
}

// routeR4x is RouteR4 with two extra degrees of freedom used by the
// opportunistic mode: per-block-index target policies and, when
// exitParity is non-nil, a forced partite side for every block's exit
// vertex (which pins the global parity chain that odd-length block
// paths require).
func routeR4x(r4 *superring.Ring, fs *faults.Set, targetsFor func(blockIdx, vf int) []int, exitParity []int, cfg Config, in *instr) (*routed, error) {
	pats := r4.Vertices()
	plans, err := newBlockPlans(pats, fs)
	if err != nil {
		return nil, err
	}
	for k, p := range plans {
		p.targets = targetsFor(k, len(p.avoidV))
	}
	var keep func(int, junction) bool
	if exitParity != nil {
		n := r4.N()
		keep = func(k int, j junction) bool { return j.u.Parity(n) == exitParity[k] }
	}
	cands, err := healthyJunctions(pats, len(pats), fs, keep)
	if err != nil {
		return nil, err
	}

	jspan := in.span("core.phase.junction")
	err = chooseJunctions(plans, cands, nil, in)
	jspan.End()
	if err != nil {
		return nil, err
	}
	offsets := make([]int, len(plans)+1)
	for k, p := range plans {
		offsets[k+1] = offsets[k] + p.length
	}
	return &routed{plans: plans, offsets: offsets}, nil
}

// newBlockPlans builds the routing state of every block of a ring or
// chain: its S4 block, faulty vertices and interior faulty edges. The
// caller sets the targets.
func newBlockPlans(pats []substar.Pattern, fs *faults.Set) ([]*blockPlan, error) {
	plans := make([]*blockPlan, len(pats))
	for k, pat := range pats {
		b, err := pathsearch.NewBlock(pat)
		if err != nil {
			return nil, fmt.Errorf("core: internal: %w", err)
		}
		plan := &blockPlan{block: b, avoidV: fs.FaultyIn(pat, nil)}
		for _, e := range fs.IntraEdgesIn(pat, nil) {
			plan.avoidE = append(plan.avoidE, [2]perm.Code{e.U, e.V})
		}
		plans[k] = plan
	}
	return plans, nil
}

// healthyJunctions lists the candidate junctions of each gap k <
// gaps, where gap k joins pats[k] to pats[(k+1) mod len(pats)]: the
// crossing edges whose endpoints and edge are healthy and which keep
// accepts (nil keeps all). A ring has len(pats) gaps, a chain one
// fewer.
func healthyJunctions(pats []substar.Pattern, gaps int, fs *faults.Set, keep func(k int, j junction) bool) ([][]junction, error) {
	cands := make([][]junction, gaps)
	for k := range cands {
		us, ws := pats[k].CrossEdges(pats[(k+1)%len(pats)], nil, nil)
		var js []junction
		for i := range us {
			j := junction{u: us[i], w: ws[i]}
			if fs.HasVertex(j.u) || fs.HasVertex(j.w) || fs.HasEdge(j.u, j.w) {
				continue
			}
			if keep != nil && !keep(k, j) {
				continue
			}
			js = append(js, j)
		}
		if len(js) == 0 {
			return nil, fmt.Errorf("core: gap %d has no healthy crossing edge", k)
		}
		cands[k] = js
	}
	return cands, nil
}

// chainEnds are the fixed endpoints of an open chain: block 0 is
// entered at s and the last block left at t.
type chainEnds struct {
	s, t perm.Code
}

// chooseJunctions assigns one junction per gap, left to right with
// backtracking, such that every block admits a path of one of its
// target lengths between its entry and its exit. With ends nil the
// blocks form a closed ring of m gaps, gap k joining block k to block
// (k+1) mod m; otherwise they form an open chain of m-1 gaps entered at
// ends.s and left at ends.t. Block k is validated once junction k is
// set, except a ring's block 0, whose entry is the last junction: the
// last junction validates it (a ring) or the final block (a chain).
// With zero gaps only the replay runs, routing block 0 from s to t.
func chooseJunctions(plans []*blockPlan, cands [][]junction, ends *chainEnds, in *instr) error {
	m, gaps := len(plans), len(cands)
	idx := make([]int, gaps)
	chosen := make([]junction, gaps)

	// blockFeasible reports whether block k supports one of its target
	// lengths between entry and exit, recording the first that works.
	blockFeasible := func(k int, entry, exit perm.Code) bool {
		p := plans[k]
		for _, t := range p.targets {
			_, ok := p.block.Path(pathsearch.PathSpec{
				From: entry, To: exit,
				AvoidV: p.avoidV, AvoidE: p.avoidE,
				Target: t,
			})
			if ok {
				p.entry, p.exit, p.length = entry, exit, t
				return true
			}
		}
		return false
	}
	entryOf := func(k int) perm.Code {
		switch {
		case k > 0:
			return chosen[k-1].w
		case ends != nil:
			return ends.s
		}
		return chosen[gaps-1].w
	}
	exitOf := func(k int) perm.Code {
		if k == gaps {
			return ends.t // only a chain's last block lies past its gaps
		}
		return chosen[k].u
	}
	closing := gaps % m // block 0 of a ring, block m-1 of a chain

	// The step bound guards against pathological backtracking; it must
	// scale with the block count or the bound itself becomes the limit —
	// n = 11 already has 1.66M blocks, more than the old fixed 2^21.
	maxSteps := 1 << 21
	if s := 32 * m; s > maxSteps {
		maxSteps = s
	}
	steps := 0
	k := 0
	for k < gaps {
		if steps++; steps > maxSteps {
			return fmt.Errorf("core: junction search exceeded %d steps (blocks=%d)", maxSteps, m)
		}
		if idx[k] >= len(cands[k]) {
			idx[k] = 0
			k--
			if k < 0 {
				return fmt.Errorf("core: no junction assignment routes the blocks")
			}
			idx[k]++
			in.junctionBacktrack()
			continue
		}
		chosen[k] = cands[k][idx[k]]
		ok := (k == 0 && ends == nil) || blockFeasible(k, entryOf(k), chosen[k].u)
		if ok && k == gaps-1 {
			ok = blockFeasible(closing, entryOf(closing), exitOf(closing))
		}
		if !ok {
			idx[k]++
			in.junctionBacktrack()
			continue
		}
		k++
	}

	// The feasibility calls above recorded entry/exit per block, but
	// backtracking may have left stale state, so re-record the final
	// assignment.
	for k := 0; k < m; k++ {
		if !blockFeasible(k, entryOf(k), exitOf(k)) {
			return fmt.Errorf("core: block %d has no target-length path between its junctions", k)
		}
	}
	return nil
}

// assemble materializes every block path and concatenates them into the
// ring, returning the ring and the per-block segment offsets. Path
// extraction per block is independent given the junctions, so it is
// fanned out over a worker pool; results land directly in their
// precomputed segment of the output slice.
func assemble(plans []*blockPlan, cfg Config, in *instr) ([]perm.Code, []int, error) {
	m := len(plans)
	offsets := make([]int, m+1)
	for k, p := range plans {
		offsets[k+1] = offsets[k] + p.length
	}
	ring := make([]perm.Code, offsets[m])

	workers := cfg.workers()
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		outErr error
		busyNS int64
	)
	rspan := in.span("core.phase.route")
	next := make(chan int, m)
	for k := 0; k < m; k++ {
		next <- k
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker spans its whole drain of the block queue as a
			// child of the route phase, so the trace shows the pool's
			// per-worker extents, not just the aggregate.
			wspan := rspan.Span("core.route.worker")
			defer wspan.End()
			wstart := in.now()
			for k := range next {
				p := plans[k]
				path, ok := p.block.Path(pathsearch.PathSpec{
					From: p.entry, To: p.exit,
					AvoidV: p.avoidV, AvoidE: p.avoidE,
					Target: p.length,
				})
				if !ok {
					mu.Lock()
					if outErr == nil {
						outErr = fmt.Errorf("core: internal: block %d path vanished", k)
					}
					mu.Unlock()
					continue
				}
				copy(ring[offsets[k]:offsets[k+1]], path)
				in.blockRouted()
			}
			in.workerDone(wstart, &busyNS)
		}()
	}
	wg.Wait()
	in.routeDone(workers, busyNS, rspan.End())
	if outErr != nil {
		return nil, nil, outErr
	}
	return ring, offsets, nil
}
