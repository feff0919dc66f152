package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFlightNilSafe(t *testing.T) {
	if f := NewFlightRecorder(nil, 8); f != nil {
		t.Fatal("nil registry produced a live recorder")
	}
	var f *FlightRecorder
	f.noteRecord(Record{})
	f.noteSpan(Event{})
	f.SetAutoDump("x", func(string) error { return nil })
	f.NoteError(1, 2, "t.source", errors.New("boom"))
	if f.Events() != nil || f.SpanEvents() != nil || f.Registry() != nil {
		t.Error("nil recorder leaks state")
	}
	if err := f.Dump("x", func(string) error { return errors.New("no") }); err != nil {
		t.Error("nil recorder Dump errored")
	}
}

// The rings must be bounded and oldest-first: after overfilling, only
// the most recent capacity entries survive, in arrival order.
func TestFlightRingsOverwriteOldest(t *testing.T) {
	var buf strings.Builder
	reg := NewRegistry()
	clock := NewManual(time.Unix(10, 0))
	reg.SetClock(clock)
	reg.SetEventLog(NewEventLog(&buf, LevelDebug, clock))
	f := NewFlightRecorder(reg, 4)

	for i := 0; i < 6; i++ {
		reg.EventLog().Log(LevelInfo, "t.event", F("i", i))
		op := reg.StartOp("t.phase.step")
		clock.Advance(time.Millisecond)
		op.Done()
	}

	events := f.Events()
	if len(events) != 4 {
		t.Fatalf("event ring holds %d, want 4", len(events))
	}
	// The ring tees in-memory records, so field values keep their Go
	// types (int here, not JSON's float64).
	for i, rec := range events {
		if got := rec.Fields["i"]; got != i+2 {
			t.Errorf("event ring[%d].i = %v, want %d (oldest-first window)", i, got, i+2)
		}
	}
	spans := f.SpanEvents()
	if len(spans) != 4 {
		t.Fatalf("span ring holds %d, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNS <= spans[i-1].StartNS {
			t.Errorf("span ring not oldest-first: %v then %v", spans[i-1].StartNS, spans[i].StartNS)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["obs.flight.events"]; got != 6 {
		t.Errorf("obs.flight.events = %d, want 6", got)
	}
	if got := snap.Counters["obs.flight.spans"]; got != 6 {
		t.Errorf("obs.flight.spans = %d, want 6", got)
	}
}

// NoteError with no event log attached must still leave evidence in
// the ring, stamped with the failing identity.
func TestFlightNoteErrorWithoutLog(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(reg, 8)
	f.NoteError(7, 9, "t.source", errors.New("boom"))
	f.NoteError(7, 9, "t.source", nil) // nil error is a no-op

	events := f.Events()
	if len(events) != 1 {
		t.Fatalf("ring holds %d records, want 1", len(events))
	}
	rec := events[0]
	if rec.Event != "obs.flight.error" || rec.Trace != 7 || rec.Span != 9 {
		t.Errorf("error record = %+v", rec)
	}
	if rec.Fields["source"] != "t.source" || rec.Fields["error"] != "boom" {
		t.Errorf("error fields = %+v", rec.Fields)
	}
	if got := reg.Snapshot().Counters["obs.flight.errors"]; got != 1 {
		t.Errorf("obs.flight.errors = %d, want 1", got)
	}
}

func TestFlightAutoDump(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(reg, 8)

	dumps := 0
	var gotDir string
	f.SetAutoDump("post", func(dir string) error {
		dumps++
		gotDir = dir
		return nil
	})
	f.NoteError(1, 2, "t.source", errors.New("boom"))
	if dumps != 1 || gotDir != "post" {
		t.Fatalf("auto-dump ran %d times into %q, want once into post", dumps, gotDir)
	}

	// A failing dump must not count.
	f.SetAutoDump("post", func(string) error { return errors.New("disk full") })
	f.NoteError(1, 2, "t.source", errors.New("boom"))
	if got := reg.Snapshot().Counters["obs.flight.dumps"]; got != 1 {
		t.Errorf("obs.flight.dumps = %d, want 1", got)
	}

	// Disarmed: no dump on error.
	f.SetAutoDump("", nil)
	f.NoteError(1, 2, "t.source", errors.New("boom"))
	if dumps != 1 {
		t.Errorf("disarmed recorder still dumped")
	}

	// On-demand Dump counts on success and propagates failure.
	if err := f.Dump("post", func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Dump("post", func(string) error { return errors.New("no") }); err == nil {
		t.Error("Dump swallowed the writer's error")
	}
	if got := reg.Snapshot().Counters["obs.flight.dumps"]; got != 2 {
		t.Errorf("obs.flight.dumps = %d, want 2", got)
	}
}

// SetEventLog after NewFlightRecorder must re-tee the new log into the
// black box (the CLIs install the discard log in either order).
func TestFlightSurvivesEventLogSwap(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(reg, 8)
	var buf strings.Builder
	reg.SetEventLog(NewEventLog(&buf, LevelDebug, reg.Clock()))
	reg.EventLog().Log(LevelInfo, "t.event")
	if events := f.Events(); len(events) != 1 || events[0].Event != "t.event" {
		t.Fatalf("swapped log not teed: %+v", events)
	}
}
