package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pathsearch"
)

// instr is the resolved instrumentation handle of one embedding run:
// every metric looked up once, so the hot paths touch only atomics. A
// nil *instr is the disabled state — each method is a nil test and a
// return, keeping the block-routing loop allocation-free (certified by
// TestObsDisabledAllocs and BenchmarkObsDisabled).
type instr struct {
	reg *obs.Registry
	op  *obs.Op // the run's operation context; every phase span is its child

	backtracks *obs.Counter
	blocks     *obs.Counter
	workerBusy *obs.Histogram
	workers    *obs.Gauge
	utilPct    *obs.Gauge

	// Labeled families: per-n degradation curves come out of snapshots
	// as labeled series instead of one aggregate (ISSUE 9). nLabel is
	// the run's star-graph dimension, rendered once.
	nLabel  string
	embeds  *obs.CounterVec // core.embed.completed{n,mode}
	repairs *obs.CounterVec // core.repair.outcome{n,outcome}

	hits0, misses0, bypasses0 int64
}

// newInstr resolves the registry's core metrics for one run on S_n
// under the operation op; nil registry in, nil out. Every phase span
// opened through in.span is a child of op's root, and event-log records
// carry its trace id.
func newInstr(r *obs.Registry, n int, op *obs.Op) *instr {
	if r == nil {
		return nil
	}
	in := &instr{
		reg:        r,
		op:         op,
		backtracks: r.Counter("core.junction.backtracks"),
		blocks:     r.Counter("core.route.blocks"),
		workerBusy: r.Histogram("core.route.worker_busy"),
		workers:    r.Gauge("core.route.workers"),
		utilPct:    r.Gauge("core.route.utilization_pct"),
		nLabel:     strconv.Itoa(n),
		embeds:     r.CounterVec("core.embed.completed", "n", "mode"),
		repairs:    r.CounterVec("core.repair.outcome", "n", "outcome"),
	}
	// Materialize the cache counters up front so every snapshot carries
	// them, then baseline against the process-global canonical cache.
	r.Counter("core.s4.cache_hits")
	r.Counter("core.s4.cache_misses")
	r.Counter("core.s4.cache_bypasses")
	in.hits0, in.misses0, in.bypasses0 = pathsearch.Canon.CacheStats()
	return in
}

// span opens a phase span ("core.phase.*") under the run's operation;
// zero Span when disabled.
func (in *instr) span(name string) obs.Span {
	if in == nil {
		return obs.Span{}
	}
	return in.op.Span(name)
}

// fail ends a failed operation. Owned ops (created by this layer) end
// through Op.Fail, which closes the root span and fires the flight
// recorder; caller-owned ops only get the error noted — the owner
// decides when the root span closes.
func (in *instr) fail(op *obs.Op, owned bool, source string, err error) {
	if in == nil {
		return
	}
	if owned {
		op.Fail(source, err)
		return
	}
	in.reg.Flight().NoteError(op.Trace(), op.SpanID(), source, err)
}

// done ends a successful owned operation; caller-owned ops pass through.
func (in *instr) done(op *obs.Op, owned bool) {
	if in != nil && owned {
		op.Done()
	}
}

// finish folds the S4 cache activity of this run into the registry.
// The canonical cache is shared by every embedding in the process, so
// deltas against the baseline taken at newInstr are recorded, not
// absolutes.
func (in *instr) finish() {
	if in == nil {
		return
	}
	h, m, b := pathsearch.Canon.CacheStats()
	in.reg.Counter("core.s4.cache_hits").Add(h - in.hits0)
	in.reg.Counter("core.s4.cache_misses").Add(m - in.misses0)
	in.reg.Counter("core.s4.cache_bypasses").Add(b - in.bypasses0)
	in.hits0, in.misses0, in.bypasses0 = h, m, b
}

// eventLog returns the registry's structured event log, nil when
// disabled. Call sites guard on the result before building fields so
// the disabled path constructs nothing.
func (in *instr) eventLog() *obs.EventLog {
	if in == nil {
		return nil
	}
	return in.reg.EventLog()
}

// repair bumps one of the repair-outcome counters
// (core.repair.{splices,rebuilds,avoided}) plus the labeled
// core.repair.outcome family, which breaks the same tally down by
// dimension n for fleet dashboards. Resolved lazily: repairs are rare
// next to block routing, and plain embedding runs then never
// materialize the repair counters in their snapshots.
func (in *instr) repair(outcome string) {
	if in == nil {
		return
	}
	in.reg.Counter("core.repair." + outcome).Inc()
	in.repairs.With("n", in.nLabel, "outcome", outcome).Inc()
}

// embedCompleted counts one successful embedding in the labeled
// core.embed.completed family, split by dimension and by whether the
// run stayed within the paper's fault budget (mode=guaranteed) or
// degraded best-effort past it.
func (in *instr) embedCompleted(guaranteed bool) {
	if in == nil {
		return
	}
	mode := "guaranteed"
	if !guaranteed {
		mode = "besteffort"
	}
	in.embeds.With("n", in.nLabel, "mode", mode).Inc()
}

// junctionBacktrack and blockRouted sit inside the routing loop, so
// both the disabled (nil receiver) and enabled (atomic add) paths must
// stay allocation-free; hotalloc enforces it.
//
//starlint:hotpath
func (in *instr) junctionBacktrack() {
	if in == nil {
		return
	}
	in.backtracks.Inc()
}

//starlint:hotpath
func (in *instr) blockRouted() {
	if in == nil {
		return
	}
	in.blocks.Inc()
}

// now reads the registry clock; the zero time when disabled.
func (in *instr) now() time.Time {
	if in == nil {
		return time.Time{}
	}
	return in.reg.Clock().Now()
}

// workerDone records one routing worker's busy time and accumulates it
// into the shared total for the utilization gauge.
func (in *instr) workerDone(start time.Time, busyNS *int64) {
	if in == nil {
		return
	}
	busy := obs.Since(in.reg.Clock(), start)
	in.workerBusy.Observe(busy)
	atomic.AddInt64(busyNS, int64(busy))
}

// routeDone publishes the pool size and its utilization: total worker
// busy time over workers x wall time, in percent.
func (in *instr) routeDone(workers int, busyNS int64, wall time.Duration) {
	if in == nil {
		return
	}
	in.workers.Set(int64(workers))
	if wall > 0 && workers > 0 {
		pct := 100 * busyNS / (int64(workers) * int64(wall))
		if pct > 100 {
			pct = 100
		}
		in.utilPct.Set(pct)
	}
}
