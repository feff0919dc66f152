package serve

import (
	"cmp"
	"container/list"
	"encoding/binary"
	"errors"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/perm"
)

// cacheBudget is the plan cache's byte budget. At n=8 a plan is charged
// ~0.8 MiB, so about five fit; a single n >= 9 plan (~7.4 MiB) exceeds
// the budget and is never cached.
const cacheBudget = 4 << 20

// planBytes is the cache's charge for one plan: 8 bytes per ring vertex
// plus ~300 bytes of skeleton per R4 block. At n=8 that is the measured
// heap of a cold-embedded plan (0.78 MiB); a clone, which shares the
// skeleton's immutable parts with its parent, holds ~0.5 MiB.
func planBytes(p *core.Plan) int64 {
	return 8*int64(p.RingLen()) + 300*int64(p.Blocks())
}

// planKey is the canonical cache key of a fault set: n, the best-effort
// flag, and the sorted vertex and (normalized) edge faults, so any
// spelling or order of the same request maps to one entry.
func planKey(fs *faults.Set, bestEffort bool) string {
	vs := slices.Clone(fs.Vertices())
	slices.Sort(vs)
	es := slices.Clone(fs.Edges())
	slices.SortFunc(es, func(a, b faults.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	be := byte(0)
	if bestEffort {
		be = 1
	}
	key := make([]byte, 0, 3+8*(len(vs)+2*len(es)))
	key = append(key, byte(fs.N()), be, byte(len(vs)))
	for _, v := range vs {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	for _, e := range es {
		key = binary.LittleEndian.AppendUint64(key, uint64(e.U))
		key = binary.LittleEndian.AppendUint64(key, uint64(e.V))
	}
	return string(key)
}

// entry is one cached plan. The plan is shared by every request that
// hits the entry and is never mutated: readers stream it, /repair
// clones it first.
type entry struct {
	key   string
	plan  *core.Plan
	bytes int64
	// el is the entry's slot in the LRU; nil for a pinned entry, which
	// is never evicted.
	el *list.Element

	// checked records whether the plan has passed a full ring check
	// since its last mutation: true for a cold embedding or a rebuild
	// (their self-verification), false after a splice, which checks only
	// its segment unless Config.VerifyRepairs. once/err run the full
	// check at most once per unchecked entry, before its first ring is
	// streamed.
	checked bool
	once    sync.Once
	err     error
}

// errCheckAborted is an unchecked entry's verdict while its check runs:
// a check that panics leaves it in place, so the entry never passes
// without a completed check (sync.Once does not run f again).
var errCheckAborted = errors.New("serve: full ring check did not complete")

// verified runs check on an unchecked entry, once, and returns its
// verdict; checked entries pass without running it.
func (e *entry) verified(check func() error) error {
	e.once.Do(func() {
		if !e.checked {
			e.err = errCheckAborted
			e.err = check()
		}
	})
	return e.err
}

// planCache is the server's byte-budgeted LRU of plans by canonical
// fault-set key. Entries hold plans no request mutates, so a hit is
// shared without copying; /repair clones its parent and caches the
// repaired clone under the child's key. Pinned entries (Warm's
// fault-free plans, the root of every repair chain) count against the
// budget but are never evicted, so a request for a fault-free ring
// never embeds cold however the chains above it churn.
type planCache struct {
	mu     sync.Mutex
	bytes  int64
	pinned int64      // bytes of pinned entries
	lru    *list.List // of unpinned *entry, most recently used first
	byKey  map[string]*entry

	hits, misses, evictions [perm.MaxN + 1]*obs.Counter // by n
	bytesG                  *obs.Gauge
}

func newPlanCache(reg *obs.Registry, minN, maxN int) *planCache {
	c := &planCache{lru: list.New(), byKey: map[string]*entry{}, bytesG: reg.Gauge("serve.cache.bytes")}
	hv := reg.CounterVec("serve.cache.hits", "n")
	mv := reg.CounterVec("serve.cache.misses", "n")
	ev := reg.CounterVec("serve.cache.evictions", "n")
	for n := minN; n <= maxN; n++ {
		ns := strconv.Itoa(n)
		c.hits[n], c.misses[n], c.evictions[n] = hv.With("n", ns), mv.With("n", ns), ev.With("n", ns)
	}
	return c
}

// get returns the entry for key, counting a hit or a miss for
// dimension n.
func (c *planCache) get(key string, n int) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		c.misses[n].Inc()
		return nil, false
	}
	c.hits[n].Inc()
	if e.el != nil {
		c.lru.MoveToFront(e.el)
	}
	return e, true
}

// put caches plan under key, evicting least recently used entries until
// it fits, and returns the entry that now answers for key. When key is
// already cached (a concurrent request got there first) the existing
// entry is kept and returned. A plan that does not fit the budget left
// by the pinned entries is not cached: the returned entry is detached
// (cached reports false) and its plan stays the caller's own.
func (c *planCache) put(key string, plan *core.Plan, checked bool) (e *entry, cached bool) {
	return c.insert(&entry{key: key, plan: plan, bytes: planBytes(plan), checked: checked}, false)
}

// pin caches a fully checked plan under key for good, when it fits as
// put would. An unpinned entry already cached under key is pinned in its
// place.
func (c *planCache) pin(key string, plan *core.Plan) {
	c.insert(&entry{key: key, plan: plan, bytes: planBytes(plan), checked: true}, true)
}

func (c *planCache) insert(e *entry, pin bool) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.byKey[e.key]; ok {
		if old.el != nil && pin {
			c.lru.Remove(old.el)
			old.el = nil
			c.pinned += old.bytes
		} else if old.el != nil {
			c.lru.MoveToFront(old.el)
		}
		return old, true
	}
	if c.pinned+e.bytes > cacheBudget {
		return e, false
	}
	for c.bytes+e.bytes > cacheBudget {
		old := c.lru.Remove(c.lru.Back()).(*entry)
		delete(c.byKey, old.key)
		c.bytes -= old.bytes
		c.evictions[old.plan.N()].Inc()
	}
	if pin {
		c.pinned += e.bytes
	} else {
		e.el = c.lru.PushFront(e)
	}
	c.byKey[e.key] = e
	c.bytes += e.bytes
	c.bytesG.Set(c.bytes)
	return e, true
}

// drop removes e from the cache if it is still there: its plan failed
// the full ring check, so the next request for its fault set embeds
// cold.
func (c *planCache) drop(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.byKey[e.key]; ok && cur == e {
		if e.el != nil {
			c.lru.Remove(e.el)
		} else {
			c.pinned -= e.bytes
		}
		delete(c.byKey, e.key)
		c.bytes -= e.bytes
		c.bytesG.Set(c.bytes)
	}
}
