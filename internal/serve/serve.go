package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/perm"
)

// TraceHeader is the request/response header carrying the 16-hex-digit
// trace id. A client that sets it has the whole server-side timeline —
// op spans, event-log records, flight-recorder entries — filed under
// its own id (reconstruct with starmon -postmortem); the server always
// echoes the effective id back, minting a fresh one when the header is
// absent or malformed.
const TraceHeader = "X-Star-Trace"

// Config sizes the service.
type Config struct {
	// MinN..MaxN is the range of served dimensions; one engine pool is
	// built per dimension. Defaults: 3..7.
	MinN, MaxN int
	// PoolSize is the number of Embedders per dimension (default 2).
	PoolSize int
	// MaxInflight caps concurrently admitted requests across all routes;
	// beyond it requests are shed with 429. <= 0 disables the cap.
	MaxInflight int
	// MaxQueue caps callers queued per pool shard waiting for an engine;
	// beyond it requests are shed with 429. <= 0 disables the cap.
	MaxQueue int
	// BestEffort, Workers, VerifyRepairs seed the pooled engines'
	// core.Config (a request's best_effort flag can still override per
	// call via Embedder.Reuse).
	BestEffort    bool
	Workers       int
	VerifyRepairs bool
	// Chaos enables the /chaos route, which fails with a deterministic
	// 500 — the overload drill's 5xx source for flight-dump coverage.
	Chaos bool
	// Obs is the service registry; nil gets a fresh private one. Attach
	// the event log and flight recorder to it BEFORE calling New so the
	// middleware's 5xx hook and /debug/flight find them.
	Obs *obs.Registry
}

func (c *Config) setDefaults() {
	if c.MinN == 0 {
		c.MinN = 3
	}
	if c.MaxN == 0 {
		c.MaxN = 7
	}
	if c.PoolSize == 0 {
		c.PoolSize = 2
	}
}

// Server is the embedding service: the HTTP mux, the per-dimension
// engine pools, and the request-scoped observability pipeline (see the
// package comment). Build one with New, expose Handler on any
// http.Server, and optionally Warm it before accepting traffic.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	red   *red
	pools []*pool // indexed by dimension; nil outside [MinN, MaxN]
	cache *planCache
	mux   *http.ServeMux

	// inflight is the admission count the middleware checks; inflightG
	// mirrors it into the serve.inflight gauge for the exposition.
	inflight  atomic.Int64
	inflightG *obs.Gauge
	warming   *obs.Gauge
	shed      *obs.Counter
	errChaos  error
	errShed   error
	errNoPool error
}

// New validates cfg, builds the pools and the pre-resolved metric
// tables, and wires the mux. It does not warm the pools; call Warm (or
// let the first requests pay the cache fill).
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if cfg.MinN < 3 || cfg.MaxN > perm.MaxN || cfg.MinN > cfg.MaxN {
		return nil, fmt.Errorf("serve: dimension range [%d,%d] outside [3,%d]", cfg.MinN, cfg.MaxN, perm.MaxN)
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Obs,
		red:       newRED(cfg.Obs, cfg.MinN, cfg.MaxN),
		pools:     make([]*pool, cfg.MaxN+1),
		cache:     newPlanCache(cfg.Obs, cfg.MinN, cfg.MaxN),
		shed:      cfg.Obs.Counter("serve.shed"),
		errChaos:  errors.New("serve: chaos: injected failure"),
		errShed:   errors.New("serve: overloaded"),
		errNoPool: errors.New("serve: dimension not served"),
	}
	s.inflightG = cfg.Obs.Gauge("serve.inflight")
	s.warming = cfg.Obs.Gauge("serve.warming")
	depth := s.reg.GaugeVec("serve.queue_depth", "n")
	ecfg := core.Config{
		Workers:       cfg.Workers,
		BestEffort:    cfg.BestEffort,
		VerifyRepairs: cfg.VerifyRepairs,
		Obs:           cfg.Obs,
	}
	for n := cfg.MinN; n <= cfg.MaxN; n++ {
		p, err := newPool(n, cfg.PoolSize, cfg.MaxQueue, ecfg, depth.With("n", strconv.Itoa(n)))
		if err != nil {
			return nil, err
		}
		s.pools[n] = p
	}

	s.mux = http.NewServeMux()
	s.mux.Handle("/embed", s.wrap(routeEmbed, s.handleEmbed))
	s.mux.Handle("/repair", s.wrap(routeRepair, s.handleRepair))
	s.mux.Handle("/ring", s.wrap(routeRing, s.handleRing))
	if cfg.Chaos {
		s.mux.Handle("/chaos", s.wrap(routeChaos, s.handleChaos))
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", export.MetricsHandler(s.reg))
	if f := s.reg.Flight(); f != nil {
		s.mux.Handle("/debug/flight", export.FlightHandler(f))
	}
	return s, nil
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the service registry (for /metrics co-hosting and
// tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Warm embeds each served dimension's fault-free ring, which forces
// the engines' shared caches hot, and pins the plan in the plan cache
// (when it fits the budget): every repair chain starts there, so it is
// never evicted. /readyz reports 503 until it returns.
func (s *Server) Warm() error {
	s.warming.Set(1)
	defer s.warming.Set(0)
	for n := s.cfg.MinN; n <= s.cfg.MaxN; n++ {
		p := s.pools[n]
		eng, ok := p.acquire()
		if !ok {
			return fmt.Errorf("serve: warm n=%d: %w", n, s.errShed)
		}
		plan, err := eng.Embed(nil)
		p.release(eng)
		if err != nil {
			return fmt.Errorf("serve: warm n=%d: %w", n, err)
		}
		s.cache.pin(planKey(faults.NewSet(n), s.cfg.BestEffort), plan)
	}
	return nil
}

// pool returns the shard for dimension n, nil when n is outside the
// served range.
func (s *Server) pool(n int) *pool {
	if n < s.cfg.MinN || n > s.cfg.MaxN {
		return nil
	}
	return s.pools[n]
}

// nIndex maps a request dimension onto its requests-table slot; out of
// range (including the pre-parse 0) lands in the catch-all slot 0.
func (s *Server) nIndex(n int) int {
	if n < s.cfg.MinN || n > s.cfg.MaxN {
		return 0
	}
	return n
}

// result is what a route handler reports to the middleware: the
// dimension it served (0 when rejected before parsing), the status code
// it wrote, the error behind a non-2xx (recorded to the event log, and
// to the flight recorder on 5xx), and whether the plan cache answered
// ("hit" or "miss"; empty when the request never reached it).
type result struct {
	n, code int
	err     error
	cache   string
}

// fail writes the error response and records it.
func (res *result) fail(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
	res.code, res.err = code, err
}

// handlerFunc is one route's logic: it writes the response and fills
// res as it goes, so what it recorded before a panic survives into the
// middleware's accounting.
type handlerFunc func(w http.ResponseWriter, r *http.Request, op *obs.Op, res *result)

// wrap is the observability middleware. Per request it:
//
//  1. admits or sheds (429 once inflight exceeds Config.MaxInflight),
//  2. opens a serve.op.request op continuing the X-Star-Trace trace id
//     (fresh when absent/malformed) and echoes the id in the response,
//  3. runs the route handler under that op, turning a panic into a 500
//     that still passes through the steps below,
//  4. logs the structured serve.request event (with cache=hit|miss
//     when the plan cache was consulted),
//  5. notes any 5xx to the flight recorder (auto-dumping when armed),
//  6. feeds the pre-resolved RED families through red.observe, with
//     the trace id riding the latency exemplar.
func (s *Server) wrap(ri int, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := s.inflight.Add(1)
		s.inflightG.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.inflightG.Add(-1)
		}()

		// A malformed header is not worth a 400: the request is still
		// serviceable, it just gets a fresh trace (and learns the id from
		// the echo).
		trace, _ := obs.ParseTraceID(r.Header.Get(TraceHeader))
		op := s.reg.StartOpTrace("serve.op.request", trace)
		w.Header().Set(TraceHeader, op.Trace().String())

		var res result
		if s.cfg.MaxInflight > 0 && cur > int64(s.cfg.MaxInflight) {
			s.shedRequest(w, &res)
		} else {
			runRecovered(h, w, r, op, &res)
		}

		d := op.Done()
		if op.Enabled(obs.LevelInfo) {
			fields := []obs.Field{obs.F("route", routeNames[ri]), obs.F("code", res.code),
				obs.F("n", res.n), obs.F("dur_ns", d.Nanoseconds())}
			if res.cache != "" {
				fields = append(fields, obs.F("cache", res.cache))
			}
			op.Log(obs.LevelInfo, "serve.request", fields...)
		}
		if res.code >= 500 {
			// After Done and the event record, so an auto-dumped bundle
			// already contains this request's full timeline.
			s.reg.Flight().NoteError(op.Trace(), op.SpanID(), "serve."+routeNames[ri], res.err)
		}
		s.red.observe(ri, codeIndex(res.code), s.nIndex(res.n), res.code, d, op.Trace())
	})
}

// runRecovered runs h and turns a panic into a 500, so the request
// still reaches the middleware's accounting and the flight recorder.
// (A panic after a streamed body started cannot change the status; the
// error text then ends the body, which no ring parser accepts.)
func runRecovered(h handlerFunc, w http.ResponseWriter, r *http.Request, op *obs.Op, res *result) {
	defer func() {
		if v := recover(); v != nil {
			res.fail(w, http.StatusInternalServerError, fmt.Errorf("serve: panic: %v", v))
		}
	}()
	h(w, r, op, res)
}

// shedRequest writes the 429 load-shed response.
func (s *Server) shedRequest(w http.ResponseWriter, res *result) {
	s.shed.Inc()
	res.fail(w, http.StatusTooManyRequests, s.errShed)
}

// statusFor maps an engine error onto a response code: a fault set
// beyond the paper's budget is the caller's problem (400), anything
// else is ours (500).
func statusFor(err error) int {
	if errors.Is(err, core.ErrBudget) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// session runs fn with a pooled engine for req's dimension borrowed and
// the plan for req's fault set — the shared prologue of every API
// route. It handles the unserved-dimension 400, the queue-shed 429, and
// the embed-error mapping; fn only sees a healthy plan. If fn panics,
// the engine is not returned: a fresh one takes its pool slot.
func (s *Server) session(w http.ResponseWriter, req *Request, op *obs.Op, res *result, fn func(ent *entry, shared bool)) {
	res.n = req.N
	p := s.pool(req.N)
	if p == nil {
		res.fail(w, http.StatusBadRequest,
			fmt.Errorf("%w: n=%d outside [%d,%d]", s.errNoPool, req.N, s.cfg.MinN, s.cfg.MaxN))
		return
	}
	eng, ok := p.acquire()
	if !ok {
		s.shedRequest(w, res)
		return
	}
	healthy := false
	defer func() {
		if healthy {
			p.release(eng)
		} else {
			p.replace(eng)
		}
	}()
	s.withPlan(w, req, op, res, eng, fn)
	healthy = true
}

// withPlan runs fn on the plan for req's fault set: the cached one when
// an earlier request produced that set (a hit), otherwise a cold
// embedding, which is cached in turn when it fits the budget. A cached
// plan is shared with concurrent requests (shared is true), so fn must
// only read it: /repair clones it first.
func (s *Server) withPlan(w http.ResponseWriter, req *Request, op *obs.Op, res *result, eng *core.Embedder, fn func(ent *entry, shared bool)) {
	key := planKey(req.Faults, req.BestEffort)
	ent, shared := s.cache.get(key, req.N)
	if shared {
		res.cache = "hit"
	} else {
		res.cache = "miss"
		if req.BestEffort != eng.Config().BestEffort {
			cfg := eng.Config()
			cfg.BestEffort = req.BestEffort
			eng = eng.Reuse(cfg)
		}
		plan, err := eng.EmbedOp(op, req.Faults)
		if err != nil {
			res.fail(w, statusFor(err), err)
			return
		}
		ent, shared = s.cache.put(key, plan, true)
	}
	fn(ent, shared)
}

// embedResponse is the JSON body of /embed and /repair.
type embedResponse struct {
	N            int    `json:"n"`
	Length       int    `json:"length"`
	Guarantee    int    `json:"guarantee"`
	Guaranteed   bool   `json:"guaranteed"`
	VertexFaults int    `json:"vertex_faults"`
	EdgeFaults   int    `json:"edge_faults"`
	Blocks       int    `json:"blocks"`
	Streaming    bool   `json:"streaming,omitempty"`
	Repair       string `json:"repair,omitempty"`
	OldLength    int    `json:"old_length,omitempty"`
	Rerouted     int    `json:"blocks_rerouted,omitempty"`
}

// summary is the embedding part of an embedResponse.
func summary(plan *core.Plan) embedResponse {
	r := plan.Result()
	return embedResponse{
		N: r.N, Length: r.Len(),
		Guarantee: r.Guarantee, Guaranteed: r.Guaranteed,
		VertexFaults: r.VertexFaults, EdgeFaults: r.EdgeFaults,
		Blocks: r.Blocks, Streaming: plan.Streaming(),
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) (int, error) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a 5xx status (the 200 header is out), but the
		// middleware still files the failure.
		return http.StatusOK, err
	}
	return http.StatusOK, nil
}

// handleEmbed answers GET /embed?n=6&fv=...&fe=...[&best_effort=1]
// with the embedding summary.
func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request, op *obs.Op, res *result) {
	req, err := ParseRequest(r.URL.Query())
	if err != nil {
		res.fail(w, http.StatusBadRequest, err)
		return
	}
	s.session(w, req, op, res, func(ent *entry, _ bool) {
		res.code, res.err = writeJSON(w, summary(ent.plan))
	})
}

// handleRepair answers GET /repair?n=6&fv=...&v=NEWFAULT: it folds the
// new fault into the plan for the prior faults through the plan's
// repair path, caches the repaired plan under the grown fault set, and
// reports what the repair did. A shared (cached) parent is cloned
// first, so it stays intact for every other request.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request, op *obs.Op, res *result) {
	req, err := ParseRequest(r.URL.Query())
	if err == nil && !req.HasV {
		err = errors.New("serve: /repair needs v=<vertex> (the new fault)")
	}
	if err != nil {
		res.fail(w, http.StatusBadRequest, err)
		return
	}
	s.session(w, req, op, res, func(parent *entry, shared bool) {
		plan := parent.plan
		if shared {
			plan = plan.Clone()
		}
		old := plan.RingLen()
		rep, err := plan.RepairOp(op, req.V)
		if err != nil {
			res.fail(w, statusFor(err), err)
			return
		}
		// The child's ring has passed a full check when a rebuild
		// self-verified it, when VerifyRepairs re-checked a splice, or
		// when it is the parent's checked ring unchanged (a fault that
		// landed off the ring).
		checked := rep.Outcome == core.RepairRebuild ||
			rep.Outcome == core.RepairSplice && s.cfg.VerifyRepairs ||
			rep.Outcome != core.RepairSplice && parent.checked
		s.cache.put(planKey(plan.Faults(), req.BestEffort), plan, checked)

		body := summary(plan)
		body.Repair, body.OldLength, body.Rerouted = rep.Outcome.String(), old, rep.BlocksRerouted
		res.code, res.err = writeJSON(w, body)
	})
}

// handleRing answers GET /ring?n=6&fv=... with the full ring, one
// vertex per line in permutation notation, streamed through the
// plan's cursor. A plan that has not passed a full ring check since
// its last mutation (a splice) is checked before the first byte is
// written, once per cache entry.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request, op *obs.Op, res *result) {
	req, err := ParseRequest(r.URL.Query())
	if err != nil {
		res.fail(w, http.StatusBadRequest, err)
		return
	}
	s.session(w, req, op, res, func(ent *entry, _ bool) {
		if err := ent.verified(func() error { return ent.plan.VerifyOp(op) }); err != nil {
			s.cache.drop(ent)
			res.fail(w, http.StatusInternalServerError, fmt.Errorf("serve: ring fails the full check: %w", err))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		res.code = http.StatusOK
		c := ent.plan.Cursor()
		for {
			v, ok := c.Next()
			if !ok {
				break
			}
			if _, err := fmt.Fprintln(w, v.StringN(req.N)); err != nil {
				res.err = err // client went away mid-stream
				return
			}
		}
		res.err = c.Err()
	})
}

// handleChaos (only routed under Config.Chaos) fails deterministically
// with a 500, exercising the flight-recorder auto-dump path end to end
// — the overload drill's 5xx source.
func (s *Server) handleChaos(w http.ResponseWriter, _ *http.Request, _ *obs.Op, res *result) {
	res.fail(w, http.StatusInternalServerError, s.errChaos)
}

// healthState is the JSON body of /healthz and /readyz.
type healthState struct {
	Ready       bool         `json:"ready"`
	Warming     bool         `json:"warming"`
	Inflight    int64        `json:"inflight"`
	MaxInflight int          `json:"max_inflight"`
	Pools       []poolHealth `json:"pools"`
}

type poolHealth struct {
	N         int  `json:"n"`
	Size      int  `json:"size"`
	Saturated bool `json:"saturated"`
}

func (s *Server) health() healthState {
	h := healthState{
		Warming:     s.warming.Value() != 0,
		Inflight:    s.inflight.Load(),
		MaxInflight: s.cfg.MaxInflight,
	}
	saturated := true
	for n := s.cfg.MinN; n <= s.cfg.MaxN; n++ {
		p := s.pools[n]
		sat := p.saturated()
		saturated = saturated && sat
		h.Pools = append(h.Pools, poolHealth{N: n, Size: cap(p.engines), Saturated: sat})
	}
	overAdmission := s.cfg.MaxInflight > 0 && h.Inflight >= int64(s.cfg.MaxInflight)
	h.Ready = !h.Warming && !saturated && !overAdmission
	return h
}

// handleHealthz is liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	_, _ = writeJSON(w, s.health())
}

// handleReadyz is readiness: 503 while warming, while every pool is
// saturated, or while the admission limit is reached — the signals a
// balancer should drain on.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(h)
}
