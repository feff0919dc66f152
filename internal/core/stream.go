package core

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pathsearch"
	"repro/internal/perm"
)

// ErrStaleCursor reports a RingCursor outliving a ring mutation: a
// Repair (splice or rebuild) advanced the plan's generation after the
// cursor was opened, so continuing would emit a cycle that no longer
// exists. Open a fresh cursor to stream the post-repair ring.
var ErrStaleCursor = errors.New("core: ring cursor invalidated by a plan mutation")

// RingCursor emits the plan's ring one vertex at a time in cycle
// order. On a streaming plan it is the only full view of the ring:
// block segments are re-derived from the skeleton on demand — the
// junction assignment pins every block's (entry, exit, avoid, length)
// tuple and the memoized canonical-S4 search replays each path
// deterministically — so the cursor's live state is one <= 24-vertex
// buffer regardless of ring length. On a materialized plan it walks
// the stored ring, which keeps Plan.Ring and every consumer mode-
// agnostic.
//
// The cursor is a snapshot of one generation of the ring: Repair
// invalidates it (Next returns false and Err reports ErrStaleCursor at
// the next block boundary). Not safe for concurrent use; open one
// cursor per goroutine instead — they share the process-wide S4 memo
// cache, so replays stay cheap.
type RingCursor struct {
	p   *Plan
	gen int

	seg []perm.Code // current segment; emitted up to position i
	i   int
	k   int         // next block to re-derive (streaming mode)
	buf []perm.Code // reusable replay buffer (streaming mode)

	err  error
	done bool
	span obs.Span // core.phase.stream_emit as a child of the opener's span,
	op   *obs.Op  // or, for a public Cursor, as its own operation
}

// Cursor opens a ring iterator positioned at the start of the cycle
// (the first vertex of block 0's segment, which equals Ring()[0]). When
// the embedder's registry is attached the traversal is its own
// operation, whose root span core.phase.stream_emit runs from open to
// exhaustion.
func (p *Plan) Cursor() *RingCursor {
	c := p.cursor(obs.Span{})
	c.op = p.e.cfg.Obs.StartOp("core.phase.stream_emit")
	return c
}

// cursor opens a ring iterator whose traversal is spanned as a
// core.phase.stream_emit child of parent (not at all for the zero
// Span).
func (p *Plan) cursor(parent obs.Span) *RingCursor {
	c := &RingCursor{p: p, gen: p.gen, span: parent.Span("core.phase.stream_emit")}
	if p.res.Ring != nil {
		c.seg = p.res.Ring
	} else {
		c.buf = make([]perm.Code, 0, blockOrder)
	}
	return c
}

// Next returns the next ring vertex, or ok=false when the cycle has
// been fully emitted (or the cursor failed — check Err). The in-buffer
// step is the allocation-free hot path (see .starlint); the per-block
// refill re-derives one segment through the memo cache.
func (c *RingCursor) Next() (perm.Code, bool) {
	if c.i < len(c.seg) {
		return c.nextFast(), true
	}
	return c.refill()
}

// nextFast is the per-vertex emit step: a bounds-checked read out of
// the current segment buffer. It sits inside every streaming consumer's
// innermost loop (3.6M iterations at n = 10), so it must stay
// allocation-free; the .starlint hotpath entry has hotalloc enforce
// that against refactors.
func (c *RingCursor) nextFast() perm.Code {
	v := c.seg[c.i]
	c.i++
	return v
}

// refill advances to the next block segment (the cold path, hit once
// per <= 24 vertices). It is also where exhaustion, staleness and
// replay failure are decided.
func (c *RingCursor) refill() (perm.Code, bool) {
	var zero perm.Code
	if c.done || c.err != nil {
		return zero, false
	}
	p := c.p
	if c.gen != p.gen {
		c.fail(ErrStaleCursor)
		return zero, false
	}
	if p.res.Ring != nil || c.k >= len(p.blocks) {
		// Materialized rings are a single segment; streaming rings end
		// after the last block.
		c.finish()
		return zero, false
	}
	pb := p.blocks[c.k]
	seg, ok := pb.block.PathAppend(c.buf[:0], pathsearch.PathSpec{
		From: pb.entry, To: pb.exit,
		AvoidV: pb.avoidV, AvoidE: pb.avoidE,
		Target: pb.length,
	})
	if !ok {
		c.fail(fmt.Errorf("core: block %d path vanished on streaming replay", c.k))
		return zero, false
	}
	if r := p.e.cfg.Obs; r != nil {
		// Lazy like the repair counters: materialized-only runs never
		// carry the streaming metrics in their snapshots.
		r.Counter("core.stream.blocks").Inc()
	}
	c.buf, c.seg, c.i = seg, seg, 0
	c.k++
	return c.nextFast(), true
}

func (c *RingCursor) fail(err error) {
	c.err = err
	c.finish()
}

func (c *RingCursor) finish() {
	if !c.done {
		c.done = true
		c.span.End()
		c.op.Done()
	}
}

// Err returns the terminal error, if any: ErrStaleCursor after a
// Repair, or an internal replay failure. A fully drained cursor on an
// untouched plan always reports nil.
func (c *RingCursor) Err() error { return c.err }
