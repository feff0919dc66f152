// Package obs is the repository's zero-dependency observability layer:
// atomic counters and gauges, log-bucketed timing histograms with
// p50/p95/max, traced phase spans with a pluggable event sink, and an
// injectable clock. It exists so the embedding pipeline — an O(n!)
// construction whose junction backtracks, S4 cache behavior and
// worker-pool utilization are otherwise invisible — can be measured
// without perturbing it.
//
// Each job has one mechanism. Metrics live in one store: a Registry
// indexes metric families by kind and name, and a plain Counter, Gauge
// or Histogram is the zero-key slot of a family, beside the labeled
// slots of CounterVec, GaugeVec and HistogramVec. Spans come in one
// kind: every span belongs to an Op (Registry.StartOp), so every span
// event carries a trace id.
//
// Every API is nil-safe: methods on a nil *Registry, *Op, *Counter,
// *Gauge or *Histogram, and End on a zero Span, are no-ops costing a
// pointer test and a return. Instrumented hot paths therefore carry no
// configuration branches of their own; they call through unconditionally
// and pay a few nanoseconds when observation is disabled (verified by
// BenchmarkObsDisabled in internal/core and the benchmarks here).
//
// Metric names are dotted paths ("core.phase.route",
// "core.s4.cache_hits"); the glossary lives in the README's
// Observability section. Snapshots serialize to JSON via WriteJSON and
// publish live through expvar (PublishExpvar, StartDebugServer).
package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter discards all operations.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil *Gauge discards all operations.
type Gauge struct {
	v int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	atomic.AddInt64(&g.v, delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// Registry names and owns a set of metrics. Metrics are created lazily
// on first access and live for the registry's lifetime; accessors on a
// nil *Registry return nil metrics, so a single optional *Registry
// switches a whole subsystem's instrumentation on or off.
type Registry struct {
	mu       sync.Mutex
	index    map[famKey]*family // every metric family, plain ones included
	fams     []*family          // the same families, in creation order (append-only)
	children map[string]*Registry
	kidList  []*Registry // every child, in creation order (append-only)
	labels   Labels      // full label set: ancestors' labels merged with own
	own      Labels      // labels added relative to the parent registry
	maxCard  int         // per-family label cardinality cap (0 = default)
	clock    Clock
	sink     Sink
	events   *EventLog
	flight   *FlightRecorder
}

// NewRegistry returns an empty registry on the wall clock.
func NewRegistry() *Registry { return &Registry{clock: Wall} }

// Child returns the child registry carrying the given additional
// labels (alternating key/value pairs), creating it on first use —
// calls with the same label set return the same child, so fleet
// aggregation can re-find a machine's registry by its identity. The
// child inherits the parent's clock, sink, flight recorder and
// cardinality cap; its event log is the parent's with the child labels
// bound as fields, so NDJSON records are stamped with the tenant
// identity. Child metrics surface through the parent's Visit and
// Snapshot with the child labels applied.
func (r *Registry) Child(kv ...string) *Registry {
	if r == nil {
		return nil
	}
	own := MakeLabels(kv...)
	key := own.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.children[key]
	if ok {
		return c
	}
	c = &Registry{
		labels:  r.labels.Merge(own),
		own:     own,
		maxCard: r.maxCard,
		clock:   r.clock,
		sink:    r.sink,
		flight:  r.flight,
		events:  r.events.With(labelFields(own)...),
	}
	if r.children == nil {
		r.children = make(map[string]*Registry)
	}
	r.children[key] = c
	r.kidList = append(r.kidList, c)
	return c
}

// Children returns the live child registries, sorted by label set.
func (r *Registry) Children() []*Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.children))
	for k := range r.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Registry, len(keys))
	for i, k := range keys {
		out[i] = r.children[k]
	}
	r.mu.Unlock()
	return out
}

// Labels returns the registry's full label set (ancestors merged with
// its own), nil for an unlabeled root.
func (r *Registry) Labels() Labels {
	if r == nil {
		return nil
	}
	return r.labels
}

// labelFields converts a label set into event-log fields.
func labelFields(ls Labels) []Field {
	if len(ls) == 0 {
		return nil
	}
	fs := make([]Field, len(ls))
	for i, l := range ls {
		fs[i] = Field{K: l.Key, V: l.Value}
	}
	return fs
}

// tree returns the registry's families and children. Both lists are
// append-only, so the slice headers are safe to iterate after the lock
// drops.
func (r *Registry) tree() ([]*family, []*Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fams, r.kidList
}

// SetClock replaces the registry's time source (nil restores Wall) and
// propagates it to existing children. Spans started before the switch
// measure across both clocks.
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	if c == nil {
		c = Wall
	}
	r.mu.Lock()
	r.clock = c
	kids := r.kidList
	r.mu.Unlock()
	for _, k := range kids {
		k.SetClock(c)
	}
}

// Clock returns the registry's time source; a nil registry reads Wall.
func (r *Registry) Clock() Clock {
	if r == nil {
		return Wall
	}
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	if c == nil {
		return Wall
	}
	return c
}

// SetSink installs the event sink that completed spans are emitted to
// (nil disables emission; histograms still record). Existing children
// inherit it.
func (r *Registry) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	kids := r.kidList
	r.mu.Unlock()
	for _, k := range kids {
		k.SetSink(s)
	}
}

// SetEventLog attaches the structured event log that instrumented
// subsystems reach through EventLog() (nil detaches it). An installed
// flight recorder is teed into the new log automatically; existing
// children re-bind their label fields onto the new log.
func (r *Registry) SetEventLog(l *EventLog) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = l
	fl := r.flight
	kids := r.kidList
	r.mu.Unlock()
	if fl != nil {
		l.setFlight(fl)
	}
	for _, k := range kids {
		k.SetEventLog(l.With(labelFields(k.own)...))
	}
}

// SetFlight installs the flight recorder fed by Span.End and teed into
// the attached event log (nil detaches). NewFlightRecorder calls this;
// most code never does directly. Existing children inherit it.
func (r *Registry) SetFlight(f *FlightRecorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.flight = f
	l := r.events
	kids := r.kidList
	r.mu.Unlock()
	l.setFlight(f)
	for _, k := range kids {
		k.SetFlight(f)
	}
}

// Flight returns the installed flight recorder; nil (a no-op recorder)
// when none is installed or the registry is nil.
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flight
}

// EventLog returns the attached structured event log; nil (itself a
// no-op log) when none is attached or the registry is nil.
func (r *Registry) EventLog() *EventLog {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// Counter returns the named counter, creating it on first use. It is
// the zero-key slot of the name's counter family, so a name declared
// with label keys (CounterVec) records a schema error and yields nil.
func (r *Registry) Counter(name string) *Counter {
	if s := r.family(counterKind, name, nil).resolve(nil); s != nil {
		return s.c
	}
	return nil
}

// Gauge returns the named gauge, creating it on first use; see Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if s := r.family(gaugeKind, name, nil).resolve(nil); s != nil {
		return s.g
	}
	return nil
}

// Histogram returns the named histogram, creating it on first use; see
// Counter.
func (r *Registry) Histogram(name string) *Histogram {
	if s := r.family(histogramKind, name, nil).resolve(nil); s != nil {
		return s.h
	}
	return nil
}

// Visitor receives one callback per live metric from Registry.Visit.
// Implementations read the metric through its atomic accessors. Every
// metric arrives under its full identity: the plain name for an
// unlabeled metric in an unlabeled registry, otherwise the label set
// encoded into the name, name{k="v",...} (see EncodeName).
type Visitor interface {
	VisitCounter(name string, c *Counter)
	VisitGauge(name string, g *Gauge)
	VisitHistogram(name string, h *Histogram)
}

// Visit enumerates every metric, descending into child registries —
// allocation-free (encoded names are precomputed per slot), the export
// Sampler's path. Families arrive in creation order, children after
// their parent; visitors that need a sorted view sort on their side.
func (r *Registry) Visit(v Visitor) {
	if r == nil {
		return
	}
	fams, kids := r.tree()
	for _, f := range fams {
		f.visit(v)
	}
	for _, k := range kids {
		k.Visit(v)
	}
}

// Snapshot is a point-in-time copy of a registry's metrics, shaped for
// JSON serialization and expvar publication. Histogram entries carry
// the per-phase duration statistics. Labels is the snapshotting
// registry's own full label set (nil for an unlabeled root); map keys
// are metric identities relative to it — plain names for its own
// unlabeled metrics, name{k="v",...} (see EncodeName) for labeled
// slots and child-registry metrics.
type Snapshot struct {
	Labels     map[string]string         `json:"labels,omitempty"`
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
	Events     []Event                   `json:"events,omitempty"`
}

// Snapshot captures every metric, including labeled families and child
// registries. When the installed sink records events (implements
// Events() []Event, as Recorder does), they are included.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	s.Labels = r.labels.Map()
	r.snapshotInto(&s, nil)
	r.mu.Lock()
	sink := r.sink
	r.mu.Unlock()
	if ev, ok := sink.(interface{ Events() []Event }); ok {
		s.Events = ev.Events()
	}
	return s
}

// snapshotInto copies this registry's metrics into s, keyed with rel —
// the label path from the snapshotting ancestor down to this registry
// — then recurses into children with their own labels appended.
func (r *Registry) snapshotInto(s *Snapshot, rel Labels) {
	fams, kids := r.tree()
	for _, f := range fams {
		f.snapshotInto(s, rel)
	}
	for _, k := range kids {
		k.snapshotInto(s, rel.Merge(k.own))
	}
}

// WriteJSON writes the current snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONFile writes the current snapshot to path, replacing any
// existing file. It backs the CLIs' -metrics-json flag.
func (r *Registry) WriteJSONFile(path string) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
