package main

import (
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{40, 15, 50, 35, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %g, want 95", got)
	}
	if got := percentile(hundred, 90.5); got != 91 {
		t.Errorf("p90.5 of 1..100 = %g, want 91 (rank rounds up)", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %g, want 7", got)
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
}

// s3Cycle is the Hamiltonian 6-cycle of S_3 (alternating swaps of
// position 1 with positions 2 and 3), embedded in S_4 with symbol 4
// fixed last.
var s3Cycle = []string{"1234", "2134", "3124", "1324", "2314", "3214"}

func words(t *testing.T, n int, ss ...string) []uint64 {
	t.Helper()
	var out []uint64
	for _, s := range ss {
		v, err := parseVertex(n, s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

func TestCheckerAcceptsValidRing(t *testing.T) {
	ring := words(t, 4, s3Cycle...)
	if err := checkRing(4, ring, nil, 6); err != nil {
		t.Fatalf("valid ring rejected: %v", err)
	}
	if err := checkRing(4, ring, words(t, 4, "4321"), 6); err != nil {
		t.Fatalf("ring avoiding the fault rejected: %v", err)
	}
}

func TestCheckerRejects(t *testing.T) {
	for _, c := range []struct {
		name   string
		ring   []string
		faulty []string
		minLen int
		want   string
	}{
		{"duplicate", []string{"1234", "2134", "3124", "1324", "2314", "2134"}, nil, 6, "repeats"},
		{"non-adjacent step", []string{"1234", "2134", "1324", "3124", "2314", "3214"}, nil, 6, "not star-adjacent"},
		{"adjacent but not a star edge", []string{"1234", "1324", "2314", "3214", "2134", "3124"}, nil, 6, "not star-adjacent"},
		{"faulty vertex", s3Cycle, []string{"3124"}, 6, "faulty"},
		{"too short", s3Cycle, nil, 8, "below the required"},
		{"open wrap-around", s3Cycle[:5], nil, 5, "last and first"},
		{"not a permutation", []string{"1234", "2134", "1134"}, nil, 3, "not a vertex"},
	} {
		err := checkRing(4, words(t, 4, c.ring...), words(t, 4, c.faulty...), c.minLen)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestCheckerAgreesWithProgramEncoding cross-checks the checker's own
// decoding against the program's perm package, and accepts a real
// embedding.
func TestCheckerAgreesWithProgramEncoding(t *testing.T) {
	const n = 5
	c := newRingChecker(n, nil)
	for r := 0; r < factorial(n); r++ {
		v := unrank(n, r)
		code := perm.Pack(perm.Unrank(n, r))
		if v != uint64(code) {
			t.Fatalf("unrank(%d) = %#x, perm says %#x", r, v, uint64(code))
		}
		if got := c.rank(v); got != r {
			t.Fatalf("rank(%#x) = %d, want %d", v, got, r)
		}
		if parityOf(n, v) != code.Parity(n) {
			t.Fatalf("parity of %s differs from perm", formatVertex(n, v))
		}
		if formatVertex(n, v) != perm.Unrank(n, r).String() {
			t.Fatalf("formatVertex(%#x) = %s, perm says %s", v, formatVertex(n, v), perm.Unrank(n, r))
		}
	}
	gen := newFaultGen(7, 4, samePartite, 3)
	fs, vs, err := gen.next()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Embed(7, fs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRing(7, res.Ring, vs, factorial(7)-8); err != nil {
		t.Fatalf("program's ring rejected: %v", err)
	}
	bad := append([]perm.Code(nil), res.Ring...)
	bad[10], bad[11] = bad[11], bad[10]
	if checkRing(7, bad, vs, 0) == nil {
		t.Fatal("ring with two swapped entries accepted")
	}
}

func TestFaultGenKindsAndRepeats(t *testing.T) {
	for name, kind := range workloads {
		a, b := newFaultGen(8, 5, kind, 42), newFaultGen(8, 5, kind, 42)
		mixed := false
		for i := 0; i < 20; i++ {
			_, va, err := a.next()
			if err != nil {
				t.Fatal(err)
			}
			_, vb, _ := b.next()
			if len(va) != 5 || strings.Join(fmtAll(va), ",") != strings.Join(fmtAll(vb), ",") {
				t.Fatalf("%s: set %d differs between equal seeds: %v vs %v", name, i, fmtAll(va), fmtAll(vb))
			}
			for _, v := range va[1:] {
				if parityOf(8, v) != parityOf(8, va[0]) {
					mixed = true
				}
			}
		}
		if mixed != (kind == uniform) {
			t.Errorf("%s: sets mixing both sides of the bipartition: %v", name, mixed)
		}
	}
}

func fmtAll(vs []uint64) []string {
	var out []string
	for _, v := range vs {
		out = append(out, formatVertex(8, v))
	}
	return out
}

func TestRingHashIsOrderSensitive(t *testing.T) {
	a, b := newRingHash(), newRingHash()
	a.add(1)
	a.add(2)
	b.add(2)
	b.add(1)
	if a == b {
		t.Fatal("hash ignores order")
	}
}

func TestSchedulerCountsLatenessWhenHandlerStalls(t *testing.T) {
	const stall = 60 * time.Millisecond
	dues := make([]time.Duration, 10)
	for i := range dues {
		dues[i] = time.Duration(i) * 2 * time.Millisecond
	}
	samples := runOpenLoop(dues, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if l := samples[0].late(); l > 20*time.Millisecond {
		t.Errorf("first request was %v late with an idle sender", l)
	}
	for i := 1; i < len(samples); i++ {
		s := samples[i]
		if s.due != dues[i] {
			t.Fatalf("request %d: due %v, want %v", i, s.due, dues[i])
		}
		// Every later request queued behind the stall: its lateness is at
		// least the stall minus how far after request 0 it was due.
		if floor := stall - dues[i]; s.late() < floor {
			t.Errorf("request %d: lateness %v, want >= %v", i, s.late(), floor)
		}
		if s.latency() < s.late() {
			t.Errorf("request %d: latency %v below lateness %v", i, s.latency(), s.late())
		}
	}
	// The stall delays the start, so the first third waits longer than
	// the last: no growing backlog.
	if backlogGrowing(samples) {
		t.Error("a one-off stall at the start reported as a growing backlog")
	}
}

func TestSchedulerReportsErrors(t *testing.T) {
	boom := errors.New("boom")
	samples := runOpenLoop([]time.Duration{0, time.Millisecond}, 2, func(i int) error {
		if i == 1 {
			return boom
		}
		return nil
	})
	if samples[0].err != nil || !errors.Is(samples[1].err, boom) {
		t.Fatalf("errors not recorded per request: %v, %v", samples[0].err, samples[1].err)
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := make([]sample, 30)
	growing := make([]sample, 30)
	for i := range steady {
		due := time.Duration(i) * 10 * time.Millisecond
		steady[i] = sample{due: due, sent: due + time.Millisecond}
		growing[i] = sample{due: due, sent: due + time.Duration(i)*5*time.Millisecond}
	}
	if backlogGrowing(steady) {
		t.Error("constant lateness reported as backlog")
	}
	if !backlogGrowing(growing) {
		t.Error("lateness growing by 5ms per request not reported as backlog")
	}
}

func TestChurnLifecycle(t *testing.T) {
	for name, kind := range workloads {
		t.Run(name, func(t *testing.T) { testChurnLifecycle(t, kind) })
	}
}

func testChurnLifecycle(t *testing.T, kind faultKind) {
	sc := makeSchedule(7, 3, kind)
	if len(sc.rounds) != serveRounds || len(sc.cells) != serveRounds*len(serveRates) {
		t.Fatalf("%d rounds with %d cells, want %d rounds of %d", len(sc.rounds), len(sc.cells), serveRounds, len(serveRates))
	}
	counts := make([]int, len(serveRates))
	prevEnd := 0
	for k, r := range sc.rounds {
		first, end := int(r.Start), int(r.End)
		if first != prevEnd || sc.dues[first] != 0 {
			t.Fatalf("round %d starts at request %d due %v, want request %d due 0", k, first, sc.dues[first], prevEnd)
		}
		prevEnd = end
		cells := sc.cells[k*len(serveRates) : (k+1)*len(serveRates)]
		if cells[0].first <= first {
			t.Fatalf("round %d has no warm-up requests", k)
		}
		at := cells[0].first
		for ri, c := range cells {
			if c.round != k || c.rate != ri || c.first != at {
				t.Fatalf("round %d: cell %+v out of order (want rate %d from %d)", k, c, ri, at)
			}
			at = c.end
			counts[c.rate] += c.end - c.first
			mean := time.Duration(float64(time.Second) / serveRates[c.rate].rps)
			for i := c.first + 1; i < c.end; i++ {
				if gap := sc.dues[i] - sc.dues[i-1]; gap < mean*9/10 || gap > mean*11/10 {
					t.Fatalf("rate %s gap %v outside [0.9, 1.1] x %v", serveRates[c.rate].name, gap, mean)
				}
			}
		}
		if at != end {
			t.Fatalf("round %d: cells end at %d, the round at %d", k, at, end)
		}
	}
	if prevEnd != len(sc.reqs) {
		t.Fatalf("rounds cover %d of %d requests", prevEnd, len(sc.reqs))
	}
	for ri, n := range counts {
		if n < serveMinRequests {
			t.Errorf("rate %s has %d measured requests, want >= %d", serveRates[ri].name, n, serveMinRequests)
		}
	}
	reqs := sc.reqs
	prior := 0
	for i, r := range reqs {
		switch {
		case (i+1)%serveRingEvery == 0:
			if r.route != "ring" {
				t.Fatalf("request %d is %s, want ring", i, r.route)
			}
		case r.route == "embed":
			if prior != 0 {
				t.Fatalf("request %d: embed in the middle of a lifecycle", i)
			}
		case r.route == "repair":
			if len(r.fv) != prior || containsWord(r.fv, r.v) {
				t.Fatalf("request %d: repair with %d prior faults, want %d and a fresh vertex", i, len(r.fv), prior)
			}
			if kind == samePartite && prior > 0 && parityOf(serveN, r.v) != parityOf(serveN, r.fv[0]) {
				t.Fatalf("request %d: same-partite lifecycle adds a fault on the other side", i)
			}
			prior = (prior + 1) % (serveN - 3)
		default:
			t.Fatalf("request %d: unexpected route %s", i, r.route)
		}
	}
}

func TestCheckReply(t *testing.T) {
	fv := words(t, serveN, "21345678")
	ok := reply{code: 200, body: []byte(`{"length":40318,"guarantee":40318}`)}
	if err := checkReply(request{route: "embed", fv: fv}, ok); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	short := reply{code: 200, body: []byte(`{"length":40316,"guarantee":40318}`)}
	if checkReply(request{route: "embed", fv: fv}, short) == nil {
		t.Fatal("length below guarantee accepted")
	}
	if checkReply(request{route: "repair", fv: fv, v: fv[0] + 1}, ok) == nil {
		t.Fatal("repair reply with the pre-repair guarantee accepted")
	}
	if checkReply(request{route: "embed"}, reply{code: 429}) == nil {
		t.Fatal("429 accepted")
	}
	fs, err := faults.FromStrings(serveN, "21345678")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Embed(serveN, fs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	for _, v := range res.Ring {
		body.WriteString(v.StringN(serveN) + "\n")
	}
	if err := checkReply(request{route: "ring", fv: fv}, reply{code: 200, body: []byte(body.String())}); err != nil {
		t.Fatalf("good /ring body rejected: %v", err)
	}
	cut := body.String()[:len(body.String())-2*(serveN+1)]
	if checkReply(request{route: "ring", fv: fv}, reply{code: 200, body: []byte(cut)}) == nil {
		t.Fatal("/ring body missing its last two lines accepted")
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the root
		{Name: "leaf", Parent: 1, Start: 15, End: 20},
	}}
	self := tr.selfTimes()
	for i, want := range []time.Duration{100 - 40 - 10, 30 - 5, 20, 30, 5} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", tr.spans[i].Name, self[i], want)
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric pins BENCHMARK.json to the workloads
// this command implements and to the metrics a run reports: printReport
// refuses any set other than endToEnd or perLayer, so the manifest must
// list exactly those, in the same units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command implements %d", names, len(workloads))
	}
	for _, w := range cfg.Workloads {
		for _, ph := range phases {
			if !strings.Contains(w.Why, ph.name) {
				t.Errorf("workload %s: why does not name the %s phase", w.Name, ph.name)
			}
		}
		for _, r := range serveRates {
			if !strings.Contains(w.Why, strconv.FormatFloat(r.rps, 'f', -1, 64)) {
				t.Errorf("workload %s: why %q does not pin the %s rate %g req/s", w.Name, w.Why, r.name, r.rps)
			}
		}
	}

	e2e := map[string]string{}
	for _, m := range cfg.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	sameMetrics(t, "end_to_end", e2e, endToEnd)
	for _, name := range []string{
		"setup_s", "ok_ratio", "embed_ms_p50", "embed_ms_p90", "stream_vps", "stream_peak_heap_mib",
		"serve_ms_p50.mid", "serve_repair_ms_p50.mid", "serve_embed_ms_p50.mid", "serve_ring_ms_p50.mid",
		"serve_max_rps",
	} {
		if _, ok := endToEnd[name]; !ok {
			t.Errorf("end-to-end metric %s is not reported", name)
		}
	}
	layer := map[string]string{}
	for _, m := range cfg.PerLayer {
		layer[m.Name] = m.Unit
	}
	sameMetrics(t, "per_layer", layer, perLayer)
	for _, name := range []string{
		"faults.separate_us", "superring.build_r4_ms", "core.route_ms", "check.ring_ms",
		"check.ring_stream_ms", "core.embed_other_ms", "core.embed_allocs", "core.embed_alloc_mib",
		"pathsearch.s4_queries", "pathsearch.s4_hit_ratio",
		"core.stream_embed_ms", "core.cursor_ms", "ringio.write_ms", "ringio.read_ms",
		"ringio.file_bytes", "core.stream_allocs",
		"serve_ms_p95.low", "serve_ms_p95.mid", "serve_ms_p95.high",
		"serve.sched_late_ms_p95.low", "serve.sched_late_ms_p95.mid", "serve.sched_late_ms_p95.high",
		"serve.handler_ms_p50.embed", "serve.handler_ms_p50.repair", "serve.handler_ms_p50.ring",
		"serve.transport_ms_p50", "core.embed_ms_p50.n8", "core.repair_us_p50.n8",
		"serve.ring_encode_ms", "serve.repair_reembed_share",
		"trace.overhead_ratio.embed-cold", "trace.overhead_ratio.ring-stream", "trace.overhead_ratio.serve-churn",
	} {
		if _, ok := perLayer[name]; !ok {
			t.Errorf("per-layer metric %s is not reported", name)
		}
	}
}

// sameMetrics reports every difference between the manifest's metrics
// and the ones the command reports, by name and unit.
func sameMetrics(t *testing.T, section string, manifest, reported map[string]string) {
	t.Helper()
	for name, unit := range reported {
		if got, ok := manifest[name]; !ok || got != unit {
			t.Errorf("BENCHMARK.json %s: %s has unit %q, the command reports %q", section, name, got, unit)
		}
	}
	for name := range manifest {
		if _, ok := reported[name]; !ok {
			t.Errorf("BENCHMARK.json %s lists %s, which the command does not report", section, name)
		}
	}
}

// TestPrintReportHoldsTheManifest checks that a run prints its result
// line only when it reports exactly the wanted metrics in their units.
func TestPrintReportHoldsTheManifest(t *testing.T) {
	want := map[string]string{"a_ms": "ms", "b_s": "s"}
	opts := options{seed: 1, seconds: 1}
	good := &outcome{attempted: 2, metrics: []metric{{name: "a_ms", value: 1.5, unit: "ms"}, {name: "b_s", value: 0.25, unit: "s"}}}
	var out strings.Builder
	if err := printReport(&out, "uniform", opts, good, want); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted != 2 || len(res.Metrics) != 2 || res.Metrics["b_s"].Unit != "s" {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	for name, bad := range map[string]*outcome{
		"missing":    {attempted: 1, metrics: good.metrics[:1]},
		"extra":      {attempted: 1, metrics: append(append([]metric(nil), good.metrics...), metric{name: "c", unit: "ms"})},
		"wrong unit": {attempted: 1, metrics: []metric{good.metrics[0], {name: "b_s", value: 250, unit: "ms"}}},
	} {
		var out strings.Builder
		if printReport(&out, "uniform", opts, bad, want) == nil {
			t.Errorf("%s metric accepted", name)
		}
		if strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("%s metric: result line printed", name)
		}
	}
}
