package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by this package around
// the layer's public function (the program itself is not instrumented).
// Op identifies the embed, pass or request the span belongs to; Parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; writeFile dumps them
// at exit. It is used from one goroutine at a time.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.base))
	return t.spans[i].dur()
}

// timed runs f under a span.
func (t *tracer) timed(name string, op, parent int, f func() error) (time.Duration, error) {
	i := t.begin(name, op, parent)
	err := f()
	return t.end(i), err
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children.
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// durations collects the durations of every span with the given name,
// in recording order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// opDurations maps op id to the duration of its span with the given
// name (the last one when an op has several).
func (t *tracer) opDurations(name string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] = s.dur()
		}
	}
	return out
}

// writeFile writes the spans as JSON, with each span's self time.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type rec struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	self := t.selfTimes()
	recs := make([]rec, len(t.spans))
	for i, s := range t.spans {
		recs[i] = rec{span: s, SelfNS: int64(self[i])}
	}
	data, err := json.Marshal(struct {
		Spans []rec `json:"spans"`
	}{recs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durMetric reduces durations to their nearest-rank median in ms or,
// with unit "us", in microseconds.
func durMetric(name string, ds []time.Duration, unit string) metric {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = scale(d, unit)
	}
	return metric{name: name, value: median(xs), unit: unit, samples: len(xs)}
}

func scale(d time.Duration, unit string) float64 {
	if unit == "us" {
		return us(d)
	}
	return ms(d)
}
