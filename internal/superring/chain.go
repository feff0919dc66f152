package superring

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/substar"
)

// Chain is the open-path counterpart of Ring: a sequence of
// pairwise-adjacent order-r substars WITHOUT the wraparound edge. It
// underlies the longest-path embedder (an extension beyond the paper;
// the authors' follow-up work studies exactly this problem): the chain
// is anchored so that its first supervertex always contains a
// designated source vertex and its last contains the designated target.
type Chain struct{ seq }

// NewChain validates a sequence into a Chain (consecutive adjacency
// only; ends stay open).
func NewChain(n int, verts []substar.Pattern) (*Chain, error) {
	if len(verts) < 2 {
		return nil, fmt.Errorf("superring: chain needs >= 2 supervertices, got %d", len(verts))
	}
	order := verts[0].R()
	for i, v := range verts {
		if v.N() != n || v.R() != order {
			return nil, fmt.Errorf("superring: chain vertex %d has wrong shape", i)
		}
		if i+1 < len(verts) && !v.Adjacent(verts[i+1]) {
			return nil, fmt.Errorf("superring: chain vertices %d and %d not adjacent", i, i+1)
		}
	}
	return &Chain{seq{n: n, order: order, verts: verts}}, nil
}

// At returns supervertex i (no modular arithmetic: chains have ends).
func (c *Chain) At(i int) substar.Pattern { return c.verts[i] }

// InitialChain partitions S_n at pos and orders the children into a
// path from the child containing s to the child containing t (which
// must therefore hold different symbols at pos). Fault-bearing interior
// children are spread when requested.
func InitialChain(n, pos int, s, t perm.Code, opts Options) (*Chain, error) {
	span := opts.Obs.Span("superring.phase.initial")
	defer span.End()
	if s.Symbol(pos) == t.Symbol(pos) {
		return nil, fmt.Errorf("superring: source and target agree at position %d; no chain anchors", pos)
	}
	children := substar.Whole(n).Partition(pos)
	var first, last substar.Pattern
	interior := children[:0:0]
	for _, ch := range children {
		switch {
		case ch.Contains(s):
			first = ch
		case ch.Contains(t):
			last = ch
		default:
			interior = append(interior, ch)
		}
	}
	ordered := interleave(interior, opts)
	verts := make([]substar.Pattern, 0, len(children))
	verts = append(verts, first)
	verts = append(verts, ordered...)
	verts = append(verts, last)
	return NewChain(n, verts)
}

// Refine performs the pos-partition on the chain exactly as
// Ring.Refine does on a ring, except that the first clique's entry is
// forced to the child containing s, the last clique's exit is forced to
// the child containing t, and there is no cyclic closure. The
// first/last-two-connected discipline applies at every interior
// junction, so the final chain of blocks enjoys (P2) at its interior
// triples.
func (c *Chain) Refine(pos int, s, t perm.Code, opts Options) (*Chain, error) {
	verts, err := refine(c.verts, pos, &anchors{s, t}, opts)
	if err != nil {
		return nil, err
	}
	return NewChain(c.n, verts)
}

// Validate re-checks the chain's structural invariants.
func (c *Chain) Validate() error { return c.validate(false) }
