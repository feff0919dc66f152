package obs

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultMaxCardinality bounds how many distinct label sets one metric
// family will materialize before With starts refusing new children.
// Labels are for low-cardinality dimensions (n, outcome, machine id);
// the cap turns an accidental per-request label into a recorded error
// instead of unbounded memory growth. Override per registry with
// SetMaxCardinality before creating families.
const DefaultMaxCardinality = 1024

// kind is a metric family's type.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

// famKey indexes a registry's families. A struct key, so a lookup by
// name builds no string; counter, gauge and histogram namespaces stay
// separate.
type famKey struct {
	kind kind
	name string
}

// family is the registry's one metric storage: one metric name, a
// declared label-key schema, and a bounded map from canonical label
// sets to live metric slots. A plain Counter, Gauge or Histogram is the
// zero-key slot of a family with no keys; CounterVec, GaugeVec and
// HistogramVec are views of a keyed family.
type family struct {
	name string
	kind kind
	keys []string // declared label keys, sorted
	base Labels   // owning registry's full label set (fixed at creation)
	cap  int

	mu    sync.Mutex
	err   error
	slots map[string]*slot
	order []*slot // insertion order; slice header captured under mu, append-only
}

// slot is one (label set → metric) binding. Exactly one of c/g/h is
// non-nil, matching the family kind. Encodings are precomputed so the
// export Sampler's Visit path stays allocation-free.
type slot struct {
	labels  Labels // With-supplied labels only, sorted
	full    Labels // base merged with labels — the absolute identity
	fullEnc string // EncodeName(name, full), the name Visitors receive
	c       *Counter
	g       *Gauge
	h       *Histogram
}

func newFamily(name string, k kind, keys []string, base Labels, cap int) *family {
	ks := append([]string(nil), keys...)
	sort.Strings(ks)
	f := &family{name: name, kind: k, keys: ks, base: base, cap: cap}
	for i, k := range ks {
		if !ValidLabelKey(k) {
			f.err = fmt.Errorf("obs: %s: invalid label key %q (want lower_snake)", name, k)
		} else if i > 0 && ks[i-1] == k {
			f.err = fmt.Errorf("obs: %s: duplicate label key %q", name, k)
		}
	}
	return f
}

// resolve returns the slot for the alternating key/value pairs in kv,
// creating it on first use. Schema mismatches and cardinality-cap trips
// record the family's first error and return nil — the caller's handle
// becomes a nil metric, which is safe to use and visibly absent from
// exports, while Err() explains why. A nil family (a nil vec from a
// nil registry) resolves nil.
func (f *family) resolve(kv []string) *slot {
	if f == nil {
		return nil
	}
	// kv must not reach fmt or any heap store: call sites pass it as a
	// stack-allocated variadic slice, which is what keeps a disabled
	// (nil-vec) With at 0 allocs. Diagnostics format the heap-side ls.
	ls := MakeLabels(kv...)
	if len(kv)%2 != 0 || !f.keysMatch(ls) {
		f.fail(fmt.Errorf("obs: %s: With{%s} (%d args) does not match declared label keys %v",
			f.name, ls.String(), len(kv), f.keys))
		return nil
	}
	key := ls.String()
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.slots[key]
	if ok {
		return s
	}
	if len(f.slots) >= f.cap {
		if f.err == nil {
			f.err = fmt.Errorf("obs: %s: label cardinality cap %d exceeded adding {%s}",
				f.name, f.cap, key)
		}
		return nil
	}
	full := f.base.Merge(ls)
	s = &slot{labels: ls, full: full, fullEnc: EncodeName(f.name, full)}
	switch f.kind {
	case counterKind:
		s.c = &Counter{}
	case gaugeKind:
		s.g = &Gauge{}
	default:
		s.h = &Histogram{}
	}
	if f.slots == nil {
		f.slots = make(map[string]*slot)
	}
	f.slots[key] = s
	f.order = append(f.order, s)
	return s
}

// keysMatch reports whether the sorted label set ls covers exactly the
// declared keys.
func (f *family) keysMatch(ls Labels) bool {
	if len(ls) != len(f.keys) {
		return false
	}
	for i, l := range ls {
		if l.Key != f.keys[i] {
			return false
		}
	}
	return true
}

func (f *family) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *family) firstErr() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// snapshotSlots returns the live slots; the returned slice header is
// immutable (order is append-only under mu).
func (f *family) snapshotSlots() []*slot {
	f.mu.Lock()
	s := f.order
	f.mu.Unlock()
	return s
}

// visit walks every slot, handing the visitor the precomputed encoded
// name, so the Sampler path allocates nothing once slots exist.
func (f *family) visit(v Visitor) {
	for _, s := range f.snapshotSlots() {
		switch f.kind {
		case counterKind:
			v.VisitCounter(s.fullEnc, s.c)
		case gaugeKind:
			v.VisitGauge(s.fullEnc, s.g)
		default:
			v.VisitHistogram(s.fullEnc, s.h)
		}
	}
}

// snapshotInto writes every slot into s keyed relative to the
// snapshotting registry: rel is the label path from that registry down
// to the family's owner.
func (f *family) snapshotInto(s *Snapshot, rel Labels) {
	for _, sl := range f.snapshotSlots() {
		key := EncodeName(f.name, rel.Merge(sl.labels))
		switch f.kind {
		case counterKind:
			s.Counters[key] = sl.c.Value()
		case gaugeKind:
			s.Gauges[key] = sl.g.Value()
		default:
			st := sl.h.Stats()
			st.Exemplars = sl.h.Exemplars()
			st.Buckets = sl.h.BucketCounts()
			s.Histograms[key] = st
		}
	}
}

// CounterVec is a labeled counter family. With resolves one label set
// to its *Counter once; hot paths hold the returned handle and pay the
// usual single pointer test per operation. A nil *CounterVec (from a
// nil registry) resolves to nil counters, keeping the disabled path
// allocation-free — BenchmarkObsDisabled in internal/core proves it.
type CounterVec family

// With returns the counter for the alternating key/value pairs, which
// must cover exactly the keys declared at CounterVec creation. On
// schema mismatch or cardinality-cap overflow it records the family's
// first error (see Err) and returns nil.
func (v *CounterVec) With(kv ...string) *Counter {
	if s := (*family)(v).resolve(kv); s != nil {
		return s.c
	}
	return nil
}

// Err returns the first schema or cardinality error recorded by With.
func (v *CounterVec) Err() error { return (*family)(v).firstErr() }

// GaugeVec is a labeled gauge family; see CounterVec.
type GaugeVec family

// With returns the gauge for the given label set; see CounterVec.With.
func (v *GaugeVec) With(kv ...string) *Gauge {
	if s := (*family)(v).resolve(kv); s != nil {
		return s.g
	}
	return nil
}

// Err returns the first schema or cardinality error recorded by With.
func (v *GaugeVec) Err() error { return (*family)(v).firstErr() }

// HistogramVec is a labeled histogram family; see CounterVec.
type HistogramVec family

// With returns the histogram for the given label set; see
// CounterVec.With.
func (v *HistogramVec) With(kv ...string) *Histogram {
	if s := (*family)(v).resolve(kv); s != nil {
		return s.h
	}
	return nil
}

// Err returns the first schema or cardinality error recorded by With.
func (v *HistogramVec) Err() error { return (*family)(v).firstErr() }

// CounterVec returns the named counter family, creating it on first
// use with the given label-key schema. Subsequent calls return the
// existing family; a conflicting key schema records an error on it.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	return (*CounterVec)(r.family(counterKind, name, keys))
}

// GaugeVec returns the named gauge family, creating it on first use.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	return (*GaugeVec)(r.family(gaugeKind, name, keys))
}

// HistogramVec returns the named histogram family, creating it on
// first use.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	return (*HistogramVec)(r.family(histogramKind, name, keys))
}

// family looks up the kind/name family, creating it with the given key
// schema on first use (nil on a nil registry). A lookup whose schema
// differs from the declared one records an error on the family, whose
// With then refuses the mismatched label sets.
func (r *Registry) family(k kind, name string, keys []string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := famKey{k, name}
	f, ok := r.index[key]
	if !ok {
		f = newFamily(name, k, keys, r.labels, r.maxCardLocked())
		if r.index == nil {
			r.index = make(map[famKey]*family)
		}
		r.index[key] = f
		r.fams = append(r.fams, f)
		return f
	}
	checkSchema(f, keys)
	return f
}

// checkSchema records an error when a family is re-declared with a
// different key set — two call sites disagreeing about a family's
// dimensions is a bug worth surfacing, not silently merging.
func checkSchema(f *family, keys []string) {
	if len(keys) != len(f.keys) {
		f.fail(fmt.Errorf("obs: %s: redeclared with keys %v (have %v)", f.name, keys, f.keys))
		return
	}
	ks := append([]string(nil), keys...)
	sort.Strings(ks)
	for i, k := range ks {
		if k != f.keys[i] {
			f.fail(fmt.Errorf("obs: %s: redeclared with keys %v (have %v)", f.name, keys, f.keys))
			return
		}
	}
}

// maxCardLocked resolves the registry's cardinality cap; callers hold
// r.mu.
func (r *Registry) maxCardLocked() int {
	if r.maxCard > 0 {
		return r.maxCard
	}
	return DefaultMaxCardinality
}

// SetMaxCardinality bounds the number of label sets each subsequently
// created family will accept (existing families keep their cap).
// Children created after the call inherit it.
func (r *Registry) SetMaxCardinality(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	r.maxCard = n
	r.mu.Unlock()
}

// VecErrors collects the first recorded error of every family in this
// registry and its children — a cheap health check for tests and the
// debug endpoint.
func (r *Registry) VecErrors() []error {
	if r == nil {
		return nil
	}
	fams, kids := r.tree()
	var errs []error
	for _, f := range fams {
		if err := f.firstErr(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, k := range kids {
		errs = append(errs, k.VecErrors()...)
	}
	return errs
}
