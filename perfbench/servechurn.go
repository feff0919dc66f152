package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/serve"
)

// serve-churn: an open loop against an in-process serve.Server (MinN =
// MaxN = 8, default pool) on a loopback listener. Each fault lifecycle
// is /embed, then one /repair per new fault until n-3 faults, then a
// reset; every 9th request is a /ring of the current fault set.
const (
	serveN = 8
	// serveRingEvery is the /ring cadence in the request stream.
	serveRingEvery = 9
	// serveMinRequests is the least number of requests a rate runs over
	// its rounds.
	serveMinRequests = 150
	// serveP95Limit is the all-route p95 latency a rate step must meet to
	// count toward serve_max_rps.
	serveP95Limit = 250 * time.Millisecond
	// serveReplayRequests is how many requests of the mid step the traced
	// run replays through the handler and the bare core.
	serveReplayRequests = 54
	// serveWarmup is how long each round offers the low rate before any
	// request is measured; the first requests after set-up or after the
	// other phases run slower than the steady state. Warm-up replies are
	// still checked and counted.
	serveWarmup = 750 * time.Millisecond
	// serveRounds is how many rounds each rate runs in, one per cycle.
	serveRounds = cycles
)

// serveRates are the fixed open-loop arrival rates in requests per
// second: about 25%, 50% and 60% of the ≈75 req/s closed-loop capacity
// with one sender per CPU, measured on a 2-core 2.1 GHz Xeon VM. They
// are pinned here and in BENCHMARK.json so every machine sees the same
// offered load. At 53 req/s (70%) a quarter of the rounds had a p95
// above 80 ms on that machine, and the run-to-run spread of the high
// rate's p95 over ten seeds was 0.84, too unsteady for a regression
// bound.
var serveRates = []struct {
	name string
	rps  float64
}{{"low", 19}, {"mid", 38}, {"high", 45}}

// request is one generated API call: route, the fault set it carries
// and, for /repair, the new fault.
type request struct {
	route string
	fv    []uint64
	v     uint64
}

// url renders the request against the server's base URL.
func (r request) url(base string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s?n=%d", base, r.route, serveN)
	if len(r.fv) > 0 {
		b.WriteString("&fv=")
		for i, v := range r.fv {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(formatVertex(serveN, v))
		}
	}
	if r.route == "repair" {
		b.WriteString("&v=" + formatVertex(serveN, r.v))
	}
	return b.String()
}

// faults is the fault set the response must avoid.
func (r request) faults() []uint64 {
	if r.route == "repair" {
		return append(append([]uint64(nil), r.fv...), r.v)
	}
	return r.fv
}

// churnGen produces the seeded request stream; each lifecycle's faults
// are drawn with the workload's fault kind.
type churnGen struct {
	rng      *rand.Rand
	kind     faultKind
	fv       []uint64
	embedded bool
	i        int
}

func (c *churnGen) next() request {
	c.i++
	if c.i%serveRingEvery == 0 {
		return request{route: "ring", fv: append([]uint64(nil), c.fv...)}
	}
	if !c.embedded {
		c.embedded = true
		return request{route: "embed", fv: append([]uint64(nil), c.fv...)}
	}
	next := drawFaults(c.rng, serveN, 1, c.kind, c.fv)
	r := request{route: "repair", fv: c.fv, v: next[len(next)-1]}
	c.fv = next
	if len(c.fv) >= serveN-3 {
		c.fv, c.embedded = nil, false
	}
	return r
}

// schedule is the generated input of a run: serveRounds rounds of an
// open-loop request stream. Each round is a warm-up at the low rate and
// then one cell per rate, low, mid, high. The rounds run apart, one per
// cycle of the run: a transient slowdown of the host then lands in one
// round of a rate, and the median round discards it. Inter-arrival gaps
// are uniform on [0.9, 1.1] times the mean gap, a seeded schedule close
// to a fixed rate; a Poisson stream's bursts would make p95 at 70% load
// depend more on the seed than on the server.
type schedule struct {
	reqs   []request
	dues   []time.Duration // from the start of the request's round
	rounds []span          // requests [Start, End) of each round
	cells  []cell          // in run order
}

// cell is one round of one rate: requests [first, end) of the schedule.
type cell struct {
	rate, round int
	first, end  int
}

func makeSchedule(seed int64, seconds float64, kind faultKind) schedule {
	rng := rand.New(rand.NewSource(seed))
	gen := &churnGen{rng: rand.New(rand.NewSource(seed + 1)), kind: kind}
	var sc schedule
	var at time.Duration
	add := func(rps float64, count int) {
		for i := 0; i < count; i++ {
			sc.reqs = append(sc.reqs, gen.next())
			sc.dues = append(sc.dues, at)
			at += time.Duration((0.9 + rng.Float64()/5) / rps * float64(time.Second))
		}
	}
	// Each rate gets an equal share of the measured time, but at least
	// serveMinRequests requests over its rounds.
	share := seconds / float64(len(serveRates))
	for round := 0; round < serveRounds; round++ {
		start := len(sc.reqs)
		at = 0
		add(serveRates[0].rps, int(serveRates[0].rps*serveWarmup.Seconds()))
		for ri, r := range serveRates {
			total := max(serveMinRequests, int(r.rps*share))
			count := (total + serveRounds - 1) / serveRounds
			first := len(sc.reqs)
			add(r.rps, count)
			sc.cells = append(sc.cells, cell{rate: ri, round: round, first: first, end: len(sc.reqs)})
		}
		sc.rounds = append(sc.rounds, span{Start: int64(start), End: int64(len(sc.reqs))})
	}
	return sc
}

// service is a running in-process server on a loopback listener.
type service struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	done   chan struct{}
	client *http.Client
}

func startService() (*service, error) {
	srv, err := serve.New(serve.Config{MinN: serveN, MaxN: serveN})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	if err := srv.Warm(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the server and waits for its goroutine to exit.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
	}
	<-s.done
	s.client.CloseIdleConnections()
}

// reply is a response kept for the untimed check.
type reply struct {
	code int
	body []byte
}

// get issues one request and reads the whole body.
func (s *service) get(url string) (reply, error) {
	resp, err := s.client.Get(url)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{code: resp.StatusCode, body: body}, err
}

// checkReply is the independent check of one response: a 200, JSON
// whose length reaches its guarantee (the paper's n!-2|Fv| for the
// request's faults), and for /ring a body that is a healthy ring of that
// length, one vertex per line.
func checkReply(r request, rep reply) error {
	if rep.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rep.code, bytes.TrimSpace(rep.body))
	}
	fv := r.faults()
	want := factorial(serveN) - 2*len(fv)
	if r.route == "ring" {
		lines := strings.Split(strings.TrimSuffix(string(rep.body), "\n"), "\n")
		c := newRingChecker(serveN, fv)
		for _, l := range lines {
			v, err := parseVertex(serveN, l)
			if err != nil {
				return err
			}
			c.add(v)
		}
		return c.close(want)
	}
	var body struct {
		Length    int `json:"length"`
		Guarantee int `json:"guarantee"`
	}
	if err := json.Unmarshal(rep.body, &body); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	switch {
	case body.Guarantee != want:
		return fmt.Errorf("guarantee %d, want n!-2|Fv| = %d", body.Guarantee, want)
	case body.Length < body.Guarantee:
		return fmt.Errorf("length %d below guarantee %d", body.Length, body.Guarantee)
	}
	return nil
}

// runResult is a run's samples, aligned with the schedule, and its
// attempted and failed counts (the warm-ups included).
type runResult struct {
	schedule
	samples           []sample
	attempted, failed int
}

func newRunResult(sc schedule) *runResult {
	return &runResult{schedule: sc, samples: make([]sample, len(sc.reqs))}
}

// runRound drives round k of the schedule open-loop, then checks every
// reply, outside every request's timing and after the round so the
// check takes no CPU from the server while it is measured.
func (res *runResult) runRound(svc *service, k int) {
	first, end := int(res.rounds[k].Start), int(res.rounds[k].End)
	reqs := res.reqs[first:end]
	replies := make([]reply, len(reqs))
	samples := runOpenLoop(res.dues[first:end], runtime.NumCPU(), func(i int) (err error) {
		replies[i], err = svc.get(reqs[i].url(svc.base))
		return err
	})
	res.attempted += len(samples)
	for i := range samples {
		if samples[i].err == nil {
			samples[i].err = checkReply(reqs[i], replies[i])
		}
		if samples[i].err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "serve-churn: request %d (%s): %v\n", first+i, reqs[i].route, samples[i].err)
		}
	}
	copy(res.samples[first:end], samples)
}

// rateRounds is one rate's measured rounds.
type rateRounds struct {
	name    string
	rps     float64
	samples [][]sample
	reqs    [][]request
}

func (res runResult) rate(ri int) rateRounds {
	rr := rateRounds{name: serveRates[ri].name, rps: serveRates[ri].rps}
	for _, c := range res.cells {
		if c.rate == ri {
			rr.samples = append(rr.samples, res.samples[c.first:c.end])
			rr.reqs = append(rr.reqs, res.reqs[c.first:c.end])
		}
	}
	return rr
}

// latencies returns the successful request latencies in ms of round k
// (all rounds when k < 0), optionally for one route only.
func (rr rateRounds) latencies(k int, route string) []float64 {
	var xs []float64
	for j, round := range rr.samples {
		if k >= 0 && j != k {
			continue
		}
		for i, s := range round {
			if s.err == nil && (route == "" || rr.reqs[j][i].route == route) {
				xs = append(xs, ms(s.latency()))
			}
		}
	}
	return xs
}

func (rr rateRounds) count() int {
	n := 0
	for _, round := range rr.samples {
		n += len(round)
	}
	return n
}

// roundMedian is the median over rounds of the p-th percentile of f's
// per-round samples: each round's percentile is nearest-rank over its
// raw samples, and the median round absorbs one disturbed round.
func (rr rateRounds) roundMedian(name string, p float64, f func(k int) []float64) metric {
	var per []float64
	for k := range rr.samples {
		per = append(per, percentile(f(k), p))
	}
	return metric{name: name, value: median(per), unit: "ms", samples: rr.count()}
}

func (rr rateRounds) p95() metric {
	return rr.roundMedian("serve_ms_p95."+rr.name, 95, func(k int) []float64 { return rr.latencies(k, "") })
}

func (rr rateRounds) lateP95() metric {
	return rr.roundMedian("serve.sched_late_ms_p95."+rr.name, 95, func(k int) []float64 {
		var xs []float64
		for _, s := range rr.samples[k] {
			xs = append(xs, ms(s.late()))
		}
		return xs
	})
}

// throughput is completed requests per second over the rate's rounds,
// each from its first due time to its last completion.
func (rr rateRounds) throughput() float64 {
	ok, secs := 0, 0.0
	for _, round := range rr.samples {
		var end time.Duration
		for _, s := range round {
			end = max(end, s.done)
			if s.err == nil {
				ok++
			}
		}
		secs += (end - round[0].due).Seconds()
	}
	return float64(ok) / secs
}

// meetsLimit reports whether the rate counts toward serve_max_rps: no
// request failed, and a majority of its rounds kept p95 within
// serveP95Limit without a growing backlog.
func (rr rateRounds) meetsLimit() bool {
	good := 0
	for k, round := range rr.samples {
		for _, s := range round {
			if s.err != nil {
				return false
			}
		}
		if !backlogGrowing(round) && percentile(rr.latencies(k, ""), 95) <= ms(serveP95Limit) {
			good++
		}
	}
	return 2*good > len(rr.samples)
}

// serveChurn is the serve-churn phase of an untraced run: one round of
// the schedule per cycle.
type serveChurn struct {
	svc *service
	res *runResult
}

func startServeChurn(p phaseRun) (phaseState, error) {
	return &serveChurn{svc: p.eng.svc, res: newRunResult(makeSchedule(p.seed, p.budget.Seconds(), p.kind))}, nil
}

func (s *serveChurn) step(cycle int) error {
	s.res.runRound(s.svc, cycle)
	return nil
}

func (s *serveChurn) report() *outcome {
	res := s.res
	var out []metric
	maxRPS := 0.0
	for ri := range serveRates {
		rr := res.rate(ri)
		var rounds []string
		for k := range rr.samples {
			rounds = append(rounds, fmt.Sprintf("%.1f", percentile(rr.latencies(k, ""), 95)))
		}
		fmt.Printf("# %s: %.0f req/s offered, %.1f served, p95 by round [%s] ms, within limit %v\n",
			rr.name, rr.rps, rr.throughput(), strings.Join(rounds, " "), rr.meetsLimit())
		if rr.meetsLimit() {
			maxRPS = rr.throughput()
		}
		if rr.name == "mid" {
			out = append(out,
				pctMetric("serve_ms_p50.mid", rr.latencies(-1, ""), 50, "ms"),
				pctMetric("serve_repair_ms_p50.mid", rr.latencies(-1, "repair"), 50, "ms"),
				pctMetric("serve_embed_ms_p50.mid", rr.latencies(-1, "embed"), 50, "ms"),
				pctMetric("serve_ring_ms_p50.mid", rr.latencies(-1, "ring"), 50, "ms"))
		}
	}
	out = append(out, metric{name: "serve_max_rps", value: maxRPS, unit: "1/s", samples: res.attempted})
	return &outcome{attempted: res.attempted, failed: res.failed, metrics: out}
}

// traceServeChurn runs the schedule's rounds back to back with spans for
// each request's queue wait and service, then replays the first serveReplayRequests
// measured requests of the mid rate three ways, each sequentially: over
// loopback, through Server.Handler().ServeHTTP with no socket (also once
// untraced, the overhead reference), and on the bare core (Embed of the
// request's faults, then Plan.Repair or a cursor drain).
func traceServeChurn(p phaseRun) (*outcome, error) {
	svc := p.eng.svc
	tr := newTracer()
	res := newRunResult(makeSchedule(p.seed, p.budget.Seconds(), p.kind))
	for k, r := range res.rounds {
		runSpan := tr.begin("serve.round", k, -1)
		base := tr.spans[runSpan].Start
		res.runRound(svc, k)
		tr.end(runSpan)
		for i := int(r.Start); i < int(r.End); i++ {
			s := res.samples[i]
			tr.spans = append(tr.spans,
				span{Name: "serve.wait", Op: i, Parent: runSpan, Start: base + int64(s.due), End: base + int64(s.sent)},
				span{Name: "serve.request", Op: i, Parent: runSpan, Start: base + int64(s.sent), End: base + int64(s.done)})
		}
	}
	attempted, failed := res.attempted, res.failed
	var out []metric
	var replay []request
	for ri := range serveRates {
		rr := res.rate(ri)
		out = append(out, rr.p95(), rr.lateP95())
		if rr.name == "mid" {
			for _, reqs := range rr.reqs {
				replay = append(replay, reqs...)
			}
			replay = replay[:min(len(replay), serveReplayRequests)]
		}
	}

	reps, att, fail, err := replayServe(tr, svc, replay, len(res.samples))
	if err != nil {
		return nil, err
	}
	attempted, failed = attempted+att, failed+fail

	var hand, untraced, transport, embed, encode []time.Duration
	handByRoute := map[string][]time.Duration{}
	var repairs []time.Duration
	var reembed, repairHandler time.Duration
	for i, r := range replay {
		t := reps[i]
		hand = append(hand, t.handler)
		untraced = append(untraced, t.untraced)
		handByRoute[r.route] = append(handByRoute[r.route], t.handler)
		transport = append(transport, t.loopback-t.handler)
		embed = append(embed, t.embed)
		switch r.route {
		case "ring":
			encode = append(encode, t.handler-t.embed-t.drain)
		case "repair":
			repairs = append(repairs, t.repair)
			reembed += t.embed
			repairHandler += t.handler
		}
	}
	out = append(out,
		durMetric("serve.handler_ms_p50.embed", handByRoute["embed"], "ms"),
		durMetric("serve.handler_ms_p50.repair", handByRoute["repair"], "ms"),
		durMetric("serve.handler_ms_p50.ring", handByRoute["ring"], "ms"),
		durMetric("serve.transport_ms_p50", transport, "ms"),
		durMetric("core.embed_ms_p50.n8", embed, "ms"),
		durMetric("core.repair_us_p50.n8", repairs, "us"),
		durMetric("serve.ring_encode_ms", encode, "ms"),
		metric{name: "serve.repair_reembed_share", value: float64(reembed) / float64(repairHandler), unit: "ratio", samples: len(repairs)},
		metric{name: "serve.repair_replays", value: float64(len(repairs)), unit: "count"},
		overheadMetric("serve-churn", hand, untraced),
	)
	return &outcome{attempted: attempted, failed: failed, metrics: out, tracer: tr}, nil
}

// replayTiming is one replayed request's cost on each path.
type replayTiming struct {
	loopback, handler, untraced time.Duration
	embed, repair, drain        time.Duration // bare core
}

// replayServe replays reqs one at a time over loopback, through the
// handler (untraced, then traced), and on the bare core, checking every
// reply; op ids start at firstOp.
func replayServe(tr *tracer, svc *service, reqs []request, firstOp int) (reps []replayTiming, attempted, failed int, err error) {
	// The bare engine shares the server's registry, so it carries the
	// same instrumentation as the pooled engines behind the handler.
	eng, err := core.NewEmbedder(serveN, core.Config{Obs: svc.srv.Registry()})
	if err != nil {
		return nil, 0, 0, err
	}
	note := func(kind string, i int, r request, err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "serve-churn: %s replay, request %d (%s): %v\n", kind, i, r.route, err)
		}
	}
	reps = make([]replayTiming, len(reqs))
	for i, r := range reqs {
		t := &reps[i]
		id := firstOp + i
		root := tr.begin("serve.replay", id, -1)
		var rep reply
		t.loopback, err = tr.timed("serve.loopback", id, root, func() (err error) {
			rep, err = svc.get(r.url(svc.base))
			return err
		})
		if err == nil {
			err = checkReply(r, rep)
		}
		note("loopback", i, r, err)

		t0 := time.Now()
		rep = serveInProcess(svc.srv, r.url(""))
		t.untraced = time.Since(t0)
		note("handler", i, r, checkReply(r, rep))
		t.handler, _ = tr.timed("serve.handler", id, root, func() error {
			rep = serveInProcess(svc.srv, r.url(""))
			return nil
		})
		note("handler", i, r, checkReply(r, rep))

		bare := tr.begin("core.bare", id, root)
		err = bareCore(tr, id, bare, eng, r, t)
		tr.end(bare)
		tr.end(root)
		note("bare-core", i, r, err)
	}
	return reps, attempted, failed, nil
}

// serveInProcess runs one request through the server's handler with no
// socket.
func serveInProcess(srv *serve.Server, target string) reply {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return reply{code: rec.Code, body: rec.Body.Bytes()}
}

// bareCore replays one request on the engine directly, under spans:
// Embed of the request's prior faults, then Plan.Repair of the new one
// (/repair) or a full cursor drain (/ring).
func bareCore(tr *tracer, id, parent int, eng *core.Embedder, r request, t *replayTiming) error {
	fs, err := faultSet(serveN, r.fv)
	if err != nil {
		return err
	}
	var plan *core.Plan
	t.embed, err = tr.timed("core.embed", id, parent, func() (err error) {
		plan, err = eng.Embed(fs)
		return err
	})
	if err != nil {
		return err
	}
	switch r.route {
	case "repair":
		t.repair, err = tr.timed("core.repair", id, parent, func() error {
			_, err := plan.Repair(perm.Code(r.v))
			return err
		})
	case "ring":
		t.drain, err = tr.timed("core.cursor", id, parent, func() error {
			cur := plan.Cursor()
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			}
			return cur.Err()
		})
	}
	if err == nil && plan.RingLen() < factorial(serveN)-2*len(r.faults()) {
		err = errors.New("ring shorter than n!-2|Fv|")
	}
	return err
}
