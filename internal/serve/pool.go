package serve

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// pool is the per-dimension Embedder shard: a fixed set of warmed
// engines for one S_n behind a buffered channel. Acquire admits up to
// size concurrent borrowers immediately; beyond that callers queue,
// and once the queue itself exceeds maxQueue the request is shed so a
// burst degrades into fast 429s instead of an unbounded latency tail.
type pool struct {
	n       int
	cfg     core.Config // every engine's configuration, for replacements
	engines chan *core.Embedder
	// queued counts callers blocked in Acquire; maxQueue <= 0 disables
	// shedding (unbounded queue).
	queued   atomic.Int64
	maxQueue int
	depth    *obs.Gauge // serve.queue_depth{n}
}

func newPool(n, size, maxQueue int, cfg core.Config, depth *obs.Gauge) (*pool, error) {
	if size < 1 {
		size = 1
	}
	p := &pool{n: n, cfg: cfg, engines: make(chan *core.Embedder, size), maxQueue: maxQueue, depth: depth}
	for i := 0; i < size; i++ {
		e, err := core.NewEmbedder(n, cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: pool n=%d: %w", n, err)
		}
		p.engines <- e
	}
	return p, nil
}

// acquire borrows an engine, queueing when the shard is busy. It
// returns ok=false — without blocking — when the queue is already at
// its admission limit; the caller turns that into a 429.
func (p *pool) acquire() (*core.Embedder, bool) {
	select {
	case e := <-p.engines:
		return e, true
	default:
	}
	q := p.queued.Add(1)
	if p.maxQueue > 0 && q > int64(p.maxQueue) {
		p.queued.Add(-1)
		return nil, false
	}
	p.depth.Add(1)
	e := <-p.engines
	p.depth.Add(-1)
	p.queued.Add(-1)
	return e, true
}

// release returns a borrowed engine to the shard.
func (p *pool) release(e *core.Embedder) { p.engines <- e }

// replace fills the slot of a borrowed engine whose borrower panicked:
// its state is suspect, so a fresh engine goes back instead. newPool
// built every engine from this n and cfg, so NewEmbedder cannot fail
// here; if it did, the old engine would keep the slot rather than the
// pool shrinking.
func (p *pool) replace(old *core.Embedder) {
	if e, err := core.NewEmbedder(p.n, p.cfg); err == nil {
		old = e
	}
	p.engines <- old
}

// saturated reports whether every engine is currently borrowed — the
// readiness signal: a saturated shard still serves, but new load will
// queue or shed.
func (p *pool) saturated() bool { return len(p.engines) == 0 }
