package harness

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// TestEveryProductionSpanTraced drives every production span site — an
// embed and a verified splice repair, a standalone ring cursor, and a
// sweep experiment that routes through the baselines — into one
// recorder, and requires that each emitted span belongs to a trace.
// Inside the embed the cursor drained by self-verification must be a
// child of core.phase.verify, and the super-ring refinement a child of
// core.phase.build_r4.
func TestEveryProductionSpanTraced(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(1 << 16)
	reg.SetSink(rec)

	e, err := core.NewEmbedder(7, core.Config{Obs: reg, VerifyRepairs: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.RandomVertices(7, 2, rand.New(rand.NewSource(3)))
	p, err := e.Embed(fs)
	if err != nil {
		t.Fatal(err)
	}
	embedEvents := rec.Events()
	if _, err := p.Repair(p.RingAt(p.RingLen() / 2)); err != nil {
		t.Fatal(err)
	}
	before := len(rec.Events())
	c := p.Cursor()
	for _, ok := c.Next(); ok; _, ok = c.Next() {
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// The standalone cursor is its own operation: one root span.
	if cur := rec.Events()[before:]; len(cur) != 1 || cur[0].Name != "core.phase.stream_emit" || cur[0].Parent != 0 {
		t.Errorf("standalone cursor emitted %+v, want one core.phase.stream_emit root span", cur)
	}
	if _, err := Collect("T3", SweepConfig{Quick: true, MaxN: 6, Obs: reg}); err != nil {
		t.Fatal(err)
	}

	events := rec.Events()
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events; raise its capacity", rec.Dropped())
	}
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev.Name] = true
		if ev.Trace == 0 || ev.Span == 0 {
			t.Errorf("span %s emitted without a trace: %+v", ev.Name, ev)
		}
	}
	for _, name := range []string{
		"core.op.embed", "core.op.repair", "core.op.route", "harness.exp.T3",
		"core.phase.stream_emit", "superring.phase.refine",
	} {
		if !seen[name] {
			t.Errorf("no %s span recorded", name)
		}
	}

	byID := map[obs.SpanID]obs.Event{}
	for _, ev := range embedEvents {
		byID[ev.Span] = ev
	}
	parentOf := func(name string) map[string]bool {
		out := map[string]bool{}
		for _, ev := range embedEvents {
			if ev.Name != name {
				continue
			}
			par, ok := byID[ev.Parent]
			if ev.Parent == 0 || !ok || par.Trace != ev.Trace {
				out["<none>"] = true
				continue
			}
			out[par.Name] = true
		}
		return out
	}
	for child, parent := range map[string]string{
		"core.phase.stream_emit":  "core.phase.verify",
		"superring.phase.initial": "core.phase.build_r4",
		"superring.phase.refine":  "core.phase.build_r4",
	} {
		got := parentOf(child)
		if len(got) != 1 || !got[parent] {
			t.Errorf("embed's %s spans have parents %v, want only %s", child, got, parent)
		}
	}
}
