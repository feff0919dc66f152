package obs

import (
	"sync"
	"time"
)

// Event is one completed span: a named phase with its start instant,
// duration in nanoseconds and trace identity. Every span belongs to an
// Op, so events a registry emits always carry a nonzero Trace and Span
// (Parent is zero only on an operation's root span). Zero ids are
// omitted from JSON; they appear only in events decoded from outside
// input, such as trace files and flight bundles.
type Event struct {
	Name    string  `json:"name"`
	StartNS int64   `json:"start_unix_ns"`
	DurNS   int64   `json:"dur_ns"`
	Trace   TraceID `json:"trace_id,omitempty"`
	Span    SpanID  `json:"span_id,omitempty"`
	Parent  SpanID  `json:"parent_span_id,omitempty"`
}

// Sink receives completed span events. Implementations must be safe
// for concurrent Emit calls.
type Sink interface {
	Emit(Event)
}

// Recorder is a bounded in-memory Sink: it keeps the first cap events
// and counts the overflow, so a runaway phase cannot grow memory
// without bound. Registry.Snapshot includes its events.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	events  []Event
	dropped int64
}

// NewRecorder returns a recorder holding at most capacity events
// (<= 0 means 1024).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{cap: capacity}
}

// Emit stores the event, or counts it as dropped once full.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Dropped returns the number of events discarded after the buffer
// filled.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Span measures one named phase of an operation. It is a plain value —
// a nil Op yields the zero Span, whose End and Span are no-ops — so
// disabled tracing allocates nothing. Spans come only from an Op (its
// root, Op.Span, or Span.Span on one of those) and carry the trace id
// and their parent's span id, which End stamps onto the emitted Event.
type Span struct {
	r      *Registry
	h      *Histogram
	name   string
	start  time.Time
	trace  TraceID
	id     SpanID
	parent SpanID
}

// span is the constructor behind StartOp and child spans: its duration
// lands in the histogram of the same name.
func (r *Registry) span(name string, trace TraceID, id SpanID, parent SpanID) Span {
	return Span{
		r: r, h: r.Histogram(name), name: name, start: r.Clock().Now(),
		trace: trace, id: id, parent: parent,
	}
}

// Span starts a child span: same trace, fresh span id, s as parent. On
// the zero Span the child is the zero Span, so call sites need no
// guards.
func (s Span) Span(name string) Span {
	if s.r == nil {
		return Span{}
	}
	return s.r.span(name, s.trace, SpanID(nextID()), s.id)
}

// Registry returns the registry the span records into (nil for the zero
// Span), so a layer handed a parent span reaches its metrics without a
// second handle.
func (s Span) Registry() *Registry { return s.r }

// Trace returns the span's trace id (zero for the zero Span).
func (s Span) Trace() TraceID { return s.trace }

// ID returns the span's own id (zero for the zero Span).
func (s Span) ID() SpanID { return s.id }

// End completes the span and returns its duration (0 for a zero Span).
// The duration lands in the span's histogram with a slowest-K exemplar
// for its trace; the completed Event reaches the sink and the flight
// recorder's span ring.
func (s Span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	d := Since(s.r.Clock(), s.start)
	s.h.ObserveTrace(d, s.trace)
	s.r.mu.Lock()
	sink := s.r.sink
	fl := s.r.flight
	s.r.mu.Unlock()
	if sink != nil || fl != nil {
		e := Event{
			Name: s.name, StartNS: s.start.UnixNano(), DurNS: int64(d),
			Trace: s.trace, Span: s.id, Parent: s.parent,
		}
		if fl != nil {
			fl.noteSpan(e)
		}
		if sink != nil {
			sink.Emit(e)
		}
	}
	return d
}
