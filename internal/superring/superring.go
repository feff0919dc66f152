// Package superring implements the paper's rings of supervertices
// (Definitions 4 and 5): an R_r is a cyclic sequence of order-r
// substars, pairwise adjacent as patterns. The package provides the
// i-partition refinement R_r -> R_{r-1} that underlies Lemma 3 — each
// supervertex splits into a clique K_r of children, and the refinement
// threads a Hamiltonian path through every clique, interleaved with the
// superedges — together with the entry/exit selection rules (blocked
// children, "first/last two connected" and fault spreading) that give
// the final R4 the paper's properties (P1), (P2) and (P3).
package superring

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/substar"
)

// Ring is a cyclic sequence of pairwise-adjacent order-r substars of
// S_n. Index arithmetic is modulo the length.
type Ring struct{ seq }

// seq is the body Ring and Chain share: the ambient dimension, the
// common order and the supervertices in sequence order.
type seq struct {
	n     int
	order int
	verts []substar.Pattern
}

// ErrUnsatisfiable reports that no arrangement satisfying the requested
// constraints exists; within the paper's fault budget this indicates a
// bug rather than a legitimate outcome, so callers treat it as fatal.
var ErrUnsatisfiable = errors.New("superring: constraints unsatisfiable")

// New wraps a validated sequence of supervertices into a Ring.
func New(n int, verts []substar.Pattern) (*Ring, error) {
	if len(verts) < 3 {
		return nil, fmt.Errorf("superring: ring needs >= 3 supervertices, got %d", len(verts))
	}
	order := verts[0].R()
	for i, v := range verts {
		if v.N() != n {
			return nil, fmt.Errorf("superring: vertex %d has dimension %d, want %d", i, v.N(), n)
		}
		if v.R() != order {
			return nil, fmt.Errorf("superring: vertex %d has order %d, want %d", i, v.R(), order)
		}
		next := verts[(i+1)%len(verts)]
		if !v.Adjacent(next) {
			return nil, fmt.Errorf("superring: vertices %d (%v) and %d (%v) not adjacent", i, v, (i+1)%len(verts), next)
		}
	}
	return &Ring{seq{n: n, order: order, verts: verts}}, nil
}

// N returns the ambient dimension.
func (q *seq) N() int { return q.n }

// Order returns the order of each supervertex.
func (q *seq) Order() int { return q.order }

// Len returns the number of supervertices.
func (q *seq) Len() int { return len(q.verts) }

// Vertices returns the underlying slice; callers must not modify it.
func (q *seq) Vertices() []substar.Pattern { return q.verts }

// At returns supervertex i modulo the ring length.
func (r *Ring) At(i int) substar.Pattern {
	m := len(r.verts)
	return r.verts[((i%m)+m)%m]
}

// Options direct a refinement or initial arrangement.
type Options struct {
	// FaultCount reports the number of fault witnesses inside a pattern;
	// nil means fault-oblivious construction.
	FaultCount func(substar.Pattern) int
	// Exclude drops matching children from the refined ring entirely
	// (used by the Latifi-Bagherzadeh clustered baseline). Excluded
	// children must never be entry or exit candidates.
	Exclude func(substar.Pattern) bool
	// HealthyJunctions requires every entry and exit child (the two
	// children straddling each superedge) to be fault-free. Combined
	// with SpreadFaults this yields property (P3).
	HealthyJunctions bool
	// SpreadFaults forbids two fault-bearing children from being
	// consecutive within a clique path.
	SpreadFaults bool
	// Obs is the caller's span: each call opens a superring.phase.initial
	// or superring.phase.refine child of it and counts junction-search
	// backtracks in its registry. The zero Span disables telemetry.
	Obs obs.Span
}

func (o Options) faultCount(p substar.Pattern) int {
	if o.FaultCount == nil {
		return 0
	}
	return o.FaultCount(p)
}

func (o Options) excluded(p substar.Pattern) bool {
	return o.Exclude != nil && o.Exclude(p)
}

// Initial builds the first super-ring from the pos-partition of S_n: the
// n children are pairwise adjacent (they differ exactly at pos), so any
// cyclic order is an R_{n-1}; the options choose one that spreads and,
// when required, separates fault-bearing children.
func Initial(n, pos int, opts Options) (*Ring, error) {
	span := opts.Obs.Span("superring.phase.initial")
	defer span.End()
	children := substar.Whole(n).Partition(pos)
	kept := children[:0:0]
	for _, c := range children {
		if !opts.excluded(c) {
			kept = append(kept, c)
		}
	}
	if len(kept) < 3 {
		return nil, fmt.Errorf("superring: only %d children survive exclusion", len(kept))
	}
	arranged, err := arrangeCycle(kept, opts)
	if err != nil {
		return nil, err
	}
	return New(n, arranged)
}

// arrangeCycle orders patterns into a cyclic sequence with no two
// fault-bearing entries adjacent when SpreadFaults is set (the
// sequences involved have length <= n).
func arrangeCycle(ps []substar.Pattern, opts Options) ([]substar.Pattern, error) {
	if !opts.SpreadFaults {
		return ps, nil
	}
	numFaulty := 0
	for _, p := range ps {
		if opts.faultCount(p) > 0 {
			numFaulty++
		}
	}
	if numFaulty <= 1 {
		return ps, nil
	}
	if numFaulty > len(ps)/2 {
		return nil, fmt.Errorf("%w: %d faulty among %d supervertices cannot be non-adjacent in a cycle",
			ErrUnsatisfiable, numFaulty, len(ps))
	}
	// With numFaulty <= len/2 the interleave ends on a healthy pattern,
	// so the wraparound joins a healthy pattern to the first one.
	out := interleave(ps, opts)
	for i := range out {
		if opts.faultCount(out[i]) > 0 && opts.faultCount(out[(i+1)%len(out)]) > 0 {
			return nil, fmt.Errorf("%w: fault interleaving failed", ErrUnsatisfiable)
		}
	}
	return out, nil
}

// interleave alternates fault-bearing and healthy patterns, starting
// with a fault-bearing one, so no two fault-bearing patterns are
// consecutive while healthy ones remain. Without SpreadFaults it
// returns ps unchanged.
func interleave(ps []substar.Pattern, opts Options) []substar.Pattern {
	if !opts.SpreadFaults || opts.FaultCount == nil {
		return ps
	}
	var fs, hs []substar.Pattern
	for _, p := range ps {
		if opts.faultCount(p) > 0 {
			fs = append(fs, p)
		} else {
			hs = append(hs, p)
		}
	}
	out := make([]substar.Pattern, 0, len(ps))
	for len(fs) > 0 || len(hs) > 0 {
		if len(fs) > 0 {
			out = append(out, fs[0])
			fs = fs[1:]
		}
		if len(hs) > 0 {
			out = append(out, hs[0])
			hs = hs[1:]
		}
	}
	return out
}

// Refine performs the pos-partition on the ring (Definition 5) and
// threads a Hamiltonian path through each resulting clique, returning
// the ring of order-(r-1) supervertices; see refine for the Lemma 3
// rules the threading obeys.
func (r *Ring) Refine(pos int, opts Options) (*Ring, error) {
	verts, err := refine(r.verts, pos, nil, opts)
	if err != nil {
		return nil, err
	}
	return New(r.n, verts)
}

// anchors pin the ends of a chain: its first supervertex holds s and
// its last holds t.
type anchors struct{ s, t perm.Code }

// refine is the clique-level refinement shared by rings and chains. It
// partitions every supervertex at pos into a clique of children and
// threads one path through each clique, following Lemma 3's proof:
//
//   - entry and exit children of each clique are never the child blocked
//     toward the relevant neighbor (otherwise no superedge would exist);
//   - the second and second-to-last children of each clique path are
//     also connected to the neighboring supervertex ("first/last two
//     connected"), which is what makes property (P2) hold after the
//     final refinement;
//   - junction children are healthy and fault-bearing children are
//     spread when the options demand it, yielding (P3).
//
// A nil ends means a closed ring: m junctions, the last joining clique
// m-1 back to clique 0. A chain has m-1 junctions; its first clique
// enters at the child holding ends.s and its last exits at the child
// holding ends.t. The junction symbols are chosen by one depth-first
// search with backtracking; within the paper's fault budget a valid
// assignment always exists.
func refine(verts []substar.Pattern, pos int, ends *anchors, opts Options) ([]substar.Pattern, error) {
	span := opts.Obs.Span("superring.phase.refine")
	defer span.End()
	m, gaps := len(verts), len(verts)
	if ends != nil {
		gaps = m - 1
	}
	cliques := make([][]substar.Pattern, m)
	blockedPrev := make([]substar.Pattern, m) // child of k not adjacent to k-1
	blockedNext := make([]substar.Pattern, m) // child of k not adjacent to k+1
	for k, v := range verts {
		all := v.Partition(pos)
		kept := all[:0:0]
		for _, c := range all {
			if !opts.excluded(c) {
				kept = append(kept, c)
			}
		}
		if len(kept) < 2 {
			return nil, fmt.Errorf("superring: clique %d has only %d children after exclusion", k, len(kept))
		}
		cliques[k] = kept
		// A chain's outer ends have no neighbor; their zero Pattern
		// blocks no child.
		if k > 0 || ends == nil {
			blockedPrev[k] = v.BlockedChild(verts[(k-1+m)%m], pos)
		}
		if k < gaps {
			blockedNext[k] = v.BlockedChild(verts[(k+1)%m], pos)
		}
	}

	// Junction symbol q_k joins clique k to clique k+1: the exit of k is
	// verts[k] with q_k fixed at pos, the entry of k+1 is verts[k+1]
	// with q_k fixed at pos. Valid q_k are the free symbols shared by
	// both parents, avoiding excluded or (when required) faulty children
	// on either side, and a chain's anchored children.
	candidates := make([][]uint8, gaps)
	for k := range candidates {
		next := (k + 1) % m
		var cs []uint8
		for _, q := range sharedFreeSymbols(verts[k], verts[next]) {
			exitChild := verts[k].Fix(pos, q)
			entryChild := verts[next].Fix(pos, q)
			if opts.excluded(exitChild) || opts.excluded(entryChild) {
				continue
			}
			if opts.HealthyJunctions && (opts.faultCount(exitChild) > 0 || opts.faultCount(entryChild) > 0) {
				continue
			}
			if ends != nil && (k == 0 && q == ends.s.Symbol(pos) || next == m-1 && q == ends.t.Symbol(pos)) {
				continue
			}
			cs = append(cs, q)
		}
		if len(cs) == 0 {
			return nil, fmt.Errorf("%w: no junction candidate between supervertices %d and %d",
				ErrUnsatisfiable, k, next)
		}
		candidates[k] = cs
	}

	// Clique k's path runs from the child with symbol entryOf(k) at pos
	// to the child with exitOf(k). Equal symbols are rejected before
	// the children are built: Fix allocates, and the search makes the
	// check for every candidate.
	qs := make([]uint8, gaps)
	entryOf := func(k int) uint8 {
		switch {
		case k > 0:
			return qs[k-1]
		case ends != nil:
			return ends.s.Symbol(pos)
		}
		return qs[gaps-1]
	}
	exitOf := func(k int) uint8 {
		if k == gaps {
			return ends.t.Symbol(pos) // only a chain's last clique lies past its gaps
		}
		return qs[k]
	}
	thread := func(k int) ([]substar.Pattern, bool) {
		in, out := entryOf(k), exitOf(k)
		if in == out {
			return nil, false
		}
		return orderClique(cliques[k], verts[k].Fix(pos, in), verts[k].Fix(pos, out), blockedPrev[k], blockedNext[k], opts)
	}
	feasible := func(k int) bool {
		_, ok := thread(k)
		return ok
	}

	// Depth-first over junctions 0..gaps-1, trying candidates in order.
	// Setting junction k makes clique k checkable (a ring's clique 0
	// waits for its entry, the closing junction); setting the last
	// junction also checks clique gaps % m, which is clique 0 of a ring
	// and the last clique of a chain. The step bound guards against
	// pathological backtracking and scales with the clique count, or the
	// bound itself becomes the limit on large levels.
	closing := gaps % m
	maxSteps := 1 << 20
	if s := 32 * m; s > maxSteps {
		maxSteps = s
	}
	backtracks := opts.Obs.Registry().Counter("superring.junction.backtracks")
	idx := make([]int, gaps) // next candidate index to try at each junction
	steps := 0
	for k := 0; k < gaps; {
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("%w: junction search exceeded %d steps (cliques=%d)", ErrUnsatisfiable, maxSteps, m)
		}
		if idx[k] >= len(candidates[k]) {
			idx[k] = 0
			if k--; k < 0 {
				return nil, fmt.Errorf("%w: no junction assignment threads the cliques", ErrUnsatisfiable)
			}
			idx[k]++
			backtracks.Inc()
			continue
		}
		qs[k] = candidates[k][idx[k]]
		ok := (k == 0 && ends == nil) || feasible(k)
		if ok && k == gaps-1 {
			ok = feasible(closing)
		}
		if !ok {
			idx[k]++
			backtracks.Inc()
			continue
		}
		k++
	}

	out := make([]substar.Pattern, 0, m*len(cliques[0]))
	for k := range cliques {
		path, ok := thread(k)
		if !ok {
			return nil, fmt.Errorf("%w: clique %d admits no path from symbol %d to %d at position %d",
				ErrUnsatisfiable, k, entryOf(k), exitOf(k), pos)
		}
		out = append(out, path...)
	}
	return out, nil
}

// sharedFreeSymbols returns the symbols free in both adjacent patterns,
// i.e. all free symbols of a except the one b fixes at their dif.
func sharedFreeSymbols(a, b substar.Pattern) []uint8 {
	j := a.Dif(b)
	y := b.SymbolAt(j)
	var out []uint8
	for _, q := range a.FreeSymbols(nil) {
		if q != y {
			out = append(out, q)
		}
	}
	return out
}

// orderClique finds a Hamiltonian ordering of the clique's children
// starting at entry and ending at exit such that:
//
//   - the second child differs from blockedPrev (so the first two
//     children are connected to the previous supervertex);
//   - the second-to-last child differs from blockedNext;
//   - entry != blockedPrev and exit != blockedNext;
//   - fault-bearing children are pairwise non-consecutive when
//     opts.SpreadFaults is set.
//
// All children of one clique are pairwise adjacent, so any ordering is a
// valid path; only the constraints restrict the choice. The search is a
// DFS over at most len(children) <= n positions.
func orderClique(children []substar.Pattern, entry, exit, blockedPrev, blockedNext substar.Pattern, opts Options) ([]substar.Pattern, bool) {
	c := len(children)
	if entry == exit {
		return nil, false
	}
	if entry == blockedPrev || exit == blockedNext {
		return nil, false
	}
	entryIdx, exitIdx := -1, -1
	for i, ch := range children {
		if ch == entry {
			entryIdx = i
		}
		if ch == exit {
			exitIdx = i
		}
	}
	if entryIdx < 0 || exitIdx < 0 {
		return nil, false
	}

	faulty := make([]bool, c)
	for i, ch := range children {
		faulty[i] = opts.SpreadFaults && opts.faultCount(ch) > 0
	}

	order := make([]int, 0, c)
	used := make([]bool, c)
	order = append(order, entryIdx)
	used[entryIdx] = true

	var rec func() bool
	rec = func() bool {
		if len(order) == c {
			return true
		}
		slot := len(order) // 0-based position being filled
		last := slot == c-1
		for i := 0; i < c; i++ {
			if used[i] {
				continue
			}
			if last != (i == exitIdx) {
				continue // exit goes exactly in the final slot
			}
			if slot == 1 && children[i] == blockedPrev {
				continue
			}
			if slot == c-2 && children[i] == blockedNext {
				continue
			}
			if faulty[i] && faulty[order[len(order)-1]] {
				continue
			}
			used[i] = true
			order = append(order, i)
			if rec() {
				return true
			}
			order = order[:len(order)-1]
			used[i] = false
		}
		return false
	}
	if !rec() {
		return nil, false
	}
	out := make([]substar.Pattern, c)
	for i, idx := range order {
		out[i] = children[idx]
	}
	return out, true
}
