package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/pathsearch"
	"repro/internal/perm"
	"repro/internal/star"
	"repro/internal/superring"
)

// embed-cold: one caller, closed loop, materialized Embedder.Embed at
// n=9 with |Fv| = n-3 = 6, a fresh seeded fault set per call.
const (
	embedColdN      = 9
	embedColdFaults = 6
	// embedColdMinOps is the least number of embeds a run holds, so that
	// p90 has at least four samples beyond it.
	embedColdMinOps = 40
	// loopWallCap stops a measuring loop that has run this long even if
	// it is short of its minimum count, so a run always exits in time.
	loopWallCap = 40 * time.Second
)

// embedCold is the embed-cold phase of an untraced run.
type embedCold struct {
	p                 phaseRun
	gen               *faultGen
	lat               []float64 // ms per checked embed
	timed, wall       time.Duration
	attempted, failed int
}

func startEmbedCold(p phaseRun) (phaseState, error) {
	return &embedCold{p: p, gen: newFaultGen(embedColdN, embedColdFaults, p.kind, p.seed)}, nil
}

// step embeds until the timed total reaches the cycle's share of the
// budget and, in the last cycle, the minimum count.
func (s *embedCold) step(cycle int) error {
	n, k := embedColdN, embedColdFaults
	e := s.p.eng.embed
	target, last := cycleTarget(s.p.budget, cycle)
	start := time.Now()
	for (s.timed < target || last && len(s.lat) < embedColdMinOps) && s.wall+time.Since(start) < loopWallCap {
		fs, vs, err := s.gen.next()
		if err != nil {
			return err
		}
		s.attempted++
		t0 := time.Now()
		plan, err := e.Embed(fs)
		d := time.Since(t0)
		s.timed += d
		if err == nil {
			err = checkRing(n, plan.Result().Ring, vs, factorial(n)-2*k)
		}
		if err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "embed-cold: embed %d: %v\n", s.attempted, err)
			continue
		}
		s.lat = append(s.lat, ms(d))
	}
	s.wall += time.Since(start)
	return nil
}

func (s *embedCold) report() *outcome {
	return &outcome{attempted: s.attempted, failed: s.failed, metrics: []metric{
		pctMetric("embed_ms_p50", s.lat, 50, "ms"),
		pctMetric("embed_ms_p90", s.lat, 90, "ms"),
	}}
}

// paperTargets is the paper's per-block length policy for RouteR4: all
// 24 vertices of a healthy block, 22 of a block holding one fault.
func paperTargets(vf int) []int { return []int{pathsearch.BlockOrder - 2*vf} }

// replayBuildR4 runs Lemma 2 separation and R4 construction through
// their public entry points under spans, with the settings Embed uses.
func replayBuildR4(tr *tracer, op, parent int, n int, fs *faults.Set) (*superring.Ring, error) {
	var positions []int
	if _, err := tr.timed("faults.separate", op, parent, func() error {
		var ok bool
		positions, ok = fs.SeparatingPositions()
		if !ok {
			return errors.New("separation failed")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	spec := core.BuildSpec{
		Positions: positions, SpreadFaults: true, HealthyBorders: true,
		VerifyP1: true, VerifyP2: true, VerifyP3: true,
	}
	var r4 *superring.Ring
	_, err := tr.timed("superring.build_r4", op, parent, func() (err error) {
		r4, err = core.BuildR4(n, fs, spec)
		return err
	})
	return r4, err
}

// replayEmbed runs the embed pipeline through each layer's public entry
// point under spans: Lemma 2 separation, R4 construction, block routing
// with assembly, and the map verifier. It is the layer split of one
// Embed call (Embed itself has no public seams between them).
func replayEmbed(tr *tracer, op, parent int, n int, fs *faults.Set) error {
	r4, err := replayBuildR4(tr, op, parent, n, fs)
	if err != nil {
		return err
	}
	var ring []perm.Code
	if _, err := tr.timed("core.route", op, parent, func() (err error) {
		ring, err = core.RouteR4(r4, fs, paperTargets, core.Config{})
		return err
	}); err != nil {
		return err
	}
	_, err = tr.timed("check.ring", op, parent, func() error {
		return check.Ring(star.New(n), ring, fs, factorial(n)-2*fs.NumVertices())
	})
	return err
}

// traceEmbedCold interleaves, per fault set, one untraced Embed (the
// reference for the tracing overhead) and one traced op: Embed under a
// span with its allocation and S4-memo deltas, then the layer replay.
// Both embeddings are checked independently.
func traceEmbedCold(p phaseRun) (*outcome, error) {
	n, k := embedColdN, embedColdFaults
	e := p.eng.embed
	gen := newFaultGen(n, k, p.kind, p.seed)
	tr := newTracer()
	var untraced []time.Duration
	var allocs, allocMiB []float64
	var hits, queries int64
	attempted, failed := 0, 0
	start := time.Now()
	for op := 0; time.Since(start) < p.budget || op < 3; op++ {
		fs, vs, err := gen.next()
		if err != nil {
			return nil, err
		}
		attempted++
		t0 := time.Now()
		plan, err := e.Embed(fs)
		untraced = append(untraced, time.Since(t0))
		if err == nil {
			err = checkRing(n, plan.Result().Ring, vs, factorial(n)-2*k)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "embed-cold: traced op %d: %v\n", op, err)
			continue
		}

		root := tr.begin("embed", op, -1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h0, mi0, b0 := pathsearch.Canon.CacheStats()
		_, err = tr.timed("core.Embed", op, root, func() (err error) {
			plan, err = e.Embed(fs)
			return err
		})
		h1, mi1, b1 := pathsearch.Canon.CacheStats()
		runtime.ReadMemStats(&m1)
		if err == nil {
			err = checkRing(n, plan.Result().Ring, vs, factorial(n)-2*k)
		}
		if err == nil {
			rp := tr.begin("replay", op, root)
			err = replayEmbed(tr, op, rp, n, fs)
			tr.end(rp)
		}
		tr.end(root)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "embed-cold: traced op %d: %v\n", op, err)
			continue
		}
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocMiB = append(allocMiB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		hits += h1 - h0
		queries += (h1 - h0) + (mi1 - mi0) + (b1 - b0)
	}

	embeds := tr.opDurations("core.Embed")
	layers := []string{"faults.separate", "superring.build_r4", "core.route", "check.ring"}
	layerDur := make([]map[int]time.Duration, len(layers))
	for i, l := range layers {
		layerDur[i] = tr.opDurations(l)
	}
	var other []time.Duration
	for op, d := range embeds {
		if _, ok := layerDur[len(layers)-1][op]; !ok {
			continue // the replay failed part-way
		}
		for _, ld := range layerDur {
			d -= ld[op]
		}
		other = append(other, d)
	}
	embedMed := durMetric("core.embed_traced_ms", tr.durations("core.Embed"), "ms")
	out := []metric{
		durMetric("faults.separate_us", tr.durations("faults.separate"), "us"),
		durMetric("superring.build_r4_ms", tr.durations("superring.build_r4"), "ms"),
		durMetric("core.route_ms", tr.durations("core.route"), "ms"),
		durMetric("check.ring_ms", tr.durations("check.ring"), "ms"),
		durMetric("core.embed_other_ms", other, "ms"),
		embedMed,
		{name: "core.embed_allocs", value: median(allocs), unit: "count", samples: len(allocs)},
		{name: "core.embed_alloc_mib", value: median(allocMiB), unit: "MiB", samples: len(allocMiB)},
		{name: "pathsearch.s4_queries", value: float64(queries), unit: "count", samples: len(allocs)},
		{name: "pathsearch.s4_hit_ratio", value: ratio(hits, queries), unit: "ratio", samples: int(queries)},
	}
	accounted := out[0].value/1000 + out[1].value + out[2].value + out[3].value + out[4].value
	out = append(out,
		metric{name: "core.embed_accounted_ratio", value: accounted / embedMed.value, unit: "ratio", samples: embedMed.samples},
		overheadMetric("embed-cold", tr.durations("core.Embed"), untraced))
	return &outcome{attempted: attempted, failed: failed, metrics: out, tracer: tr}, nil
}

// overheadMetric is the median traced duration of an operation over its
// median untraced duration in the same process.
func overheadMetric(phase string, traced, untraced []time.Duration) metric {
	t := durMetric("", traced, "ms")
	u := durMetric("", untraced, "ms")
	return metric{name: "trace.overhead_ratio." + phase, value: t.value / u.value, unit: "ratio", samples: t.samples}
}
