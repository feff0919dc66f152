package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/perm"
	"repro/internal/star"
)

// client issues test requests to one in-process server.
type client struct {
	t  *testing.T
	ts *httptest.Server
}

// get issues GET path under the given trace id (none when 0) and
// returns the status and body.
func (c client) get(path string, trace obs.TraceID) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodGet, c.ts.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	if trace != 0 {
		req.Header.Set(TraceHeader, trace.String())
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, body
}

// query renders the request for n, the fault list fv and, when v is
// non-zero, the repair vertex.
func query(route string, n int, fv []perm.Code, v perm.Code) string {
	q := fmt.Sprintf("/%s?n=%d", route, n)
	if len(fv) > 0 {
		names := make([]string, len(fv))
		for i, f := range fv {
			names[i] = f.StringN(n)
		}
		q += "&fv=" + strings.Join(names, ",")
	}
	if v != 0 {
		q += "&v=" + v.StringN(n)
	}
	return q
}

// summaryOK decodes an /embed or /repair reply and requires the paper's
// guarantee n!-2|Fv| for nv vertex faults.
func summaryOK(t *testing.T, code int, body []byte, n, nv int) embedResponse {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var r embedResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if want := perm.Factorial(n) - 2*nv; r.Guarantee != want || r.Length < r.Guarantee || r.VertexFaults != nv {
		t.Fatalf("reply %+v: want guarantee n!-2|Fv| = %d met with %d vertex faults", r, want, nv)
	}
	return r
}

// ringOK requires a /ring body to be a healthy ring avoiding fv of at
// least n!-2|Fv| vertices.
func ringOK(t *testing.T, code int, body []byte, n int, fv []perm.Code) {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("/ring status %d: %s", code, body)
	}
	fs := faults.NewSet(n)
	for _, v := range fv {
		if err := fs.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	var ring []perm.Code
	for _, line := range strings.Fields(string(body)) {
		p, err := perm.Parse(line)
		if err != nil {
			t.Fatalf("/ring line %q: %v", line, err)
		}
		ring = append(ring, perm.Pack(p))
	}
	if err := check.Ring(star.New(n), ring, fs, perm.Factorial(n)-2*len(fv)); err != nil {
		t.Fatalf("/ring body fails the full check: %v", err)
	}
}

// cacheCount reads serve.cache.<what>{n}.
func cacheCount(s *Server, what string, n int) int64 {
	return s.Registry().CounterVec("serve.cache."+what, "n").With("n", fmt.Sprint(n)).Value()
}

// lifecycle drives /embed, n-3 /repair calls each adding one random
// fault to the previous reply's set, and a /ring of the final set,
// checking every reply against the paper's guarantee.
func lifecycle(t *testing.T, c client, n int, rng *rand.Rand) []perm.Code {
	t.Helper()
	var fv []perm.Code
	code, body := c.get(query("embed", n, nil, 0), 0)
	summaryOK(t, code, body, n, 0)
	for len(fv) < faults.MaxTolerated(n) {
		var v perm.Code
		for fresh := false; !fresh; {
			v = perm.Pack(perm.Unrank(n, rng.Intn(perm.Factorial(n))))
			fresh = !slices.Contains(fv, v)
		}
		code, body := c.get(query("repair", n, fv, v), 0)
		fv = append(fv, v)
		summaryOK(t, code, body, n, len(fv))
	}
	code, body = c.get(query("ring", n, fv, 0), 0)
	ringOK(t, code, body, n, fv)
	return fv
}

// TestCacheLifecycle runs one fault-churn lifecycle and counts the
// cache exactly: without Warm only the first /embed misses; after Warm
// nothing does, because every request's fault set is the fault-free
// set or the previous reply's.
func TestCacheLifecycle(t *testing.T) {
	const n = 6
	for _, warm := range []bool{false, true} {
		s, _, _ := testServer(t, Config{MinN: n, MaxN: n, PoolSize: 1})
		if warm {
			if err := s.Warm(); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(s.Handler())
		lifecycle(t, client{t, ts}, n, rand.New(rand.NewSource(3)))
		ts.Close()

		wantMiss := int64(1)
		if warm {
			wantMiss = 0
		}
		// n-3 repairs and one ring hit; so does the /embed after Warm.
		wantHit := int64(faults.MaxTolerated(n)+1) + 1 - wantMiss
		if got := cacheCount(s, "misses", n); got != wantMiss {
			t.Errorf("warm=%v: serve.cache.misses{n=%d} = %d, want %d", warm, n, got, wantMiss)
		}
		if got := cacheCount(s, "hits", n); got != wantHit {
			t.Errorf("warm=%v: serve.cache.hits{n=%d} = %d, want %d", warm, n, got, wantHit)
		}
		if got := s.Registry().Gauge("serve.cache.bytes").Value(); got <= 0 || got > cacheBudget {
			t.Errorf("warm=%v: serve.cache.bytes = %d, want in (0, %d]", warm, got, cacheBudget)
		}
	}
}

// TestWarmRootPinned runs lifecycles at n=8, where about five plans fit
// the budget, so each lifecycle's repairs evict older plans. The
// fault-free plan Warm cached is pinned: every /embed of a new lifecycle
// still hits it, and only chain plans are evicted.
func TestWarmRootPinned(t *testing.T) {
	const n = 8
	e, err := core.NewEmbedder(n, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Embed(nil)
	if err != nil {
		t.Fatal(err)
	}
	if root := planBytes(plan); 2*root > cacheBudget || 8*root < cacheBudget {
		t.Fatalf("fault-free n=%d plan charged %d B: the test needs 2..8 plans to fit %d B", n, root, cacheBudget)
	}
	s, _, _ := testServer(t, Config{MinN: n, MaxN: n, PoolSize: 1})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2; i++ {
		lifecycle(t, client{t, ts}, n, rng)
	}
	if got := cacheCount(s, "misses", n); got != 0 {
		t.Errorf("serve.cache.misses{n=%d} = %d, want 0", n, got)
	}
	if got := cacheCount(s, "evictions", n); got == 0 {
		t.Errorf("serve.cache.evictions{n=%d} = 0: the lifecycles never filled the budget", n)
	}
	if got := s.Registry().Gauge("serve.cache.bytes").Value(); got > cacheBudget {
		t.Errorf("serve.cache.bytes = %d, over the %d B budget", got, cacheBudget)
	}
}

// spliceVertex returns a vertex whose failure the fault-free plan of
// S_n absorbs by a splice. The embedder is deterministic, so the
// server's cached fault-free plan splices it too.
func spliceVertex(t *testing.T, n int) perm.Code {
	t.Helper()
	e, err := core.NewEmbedder(n, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Embed(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.RingLen(); i++ {
		if v := p.RingAt(i); p.CanSplice(v) {
			return v
		}
	}
	t.Fatal("no spliceable vertex on the fault-free ring")
	return 0
}

// verifySpans counts the core.phase.verify spans recorded under trace.
func verifySpans(rec *obs.Recorder, trace obs.TraceID) int {
	k := 0
	for _, e := range rec.Events() {
		if e.Trace == trace && e.Name == "core.phase.verify" {
			k++
		}
	}
	return k
}

// TestRingChecksSplicedEntryOnce: a splice checks only its segment, so
// the first /ring of a spliced entry runs the full ring check before
// streaming, and later ones do not. Under VerifyRepairs the splice was
// already fully checked and no /ring runs it.
func TestRingChecksSplicedEntryOnce(t *testing.T) {
	const n = 6
	v := spliceVertex(t, n)
	for _, verifyRepairs := range []bool{false, true} {
		s, rec, _ := testServer(t, Config{MinN: n, MaxN: n, PoolSize: 1, VerifyRepairs: verifyRepairs})
		if err := s.Warm(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		c := client{t, ts}
		code, body := c.get(query("repair", n, nil, v), 0)
		if r := summaryOK(t, code, body, n, 1); r.Repair != "splice" {
			t.Fatalf("repair outcome %q, want splice", r.Repair)
		}
		fv := []perm.Code{v}
		for i, trace := range []obs.TraceID{0x1001, 0x1002} {
			code, body := c.get(query("ring", n, fv, 0), trace)
			ringOK(t, code, body, n, fv)
			want := 0
			if i == 0 && !verifyRepairs {
				want = 1
			}
			// The check's span ends before the first byte is written.
			if got := verifySpans(rec, trace); got != want {
				t.Errorf("VerifyRepairs=%v: /ring #%d ran the full check %d times, want %d", verifyRepairs, i+1, got, want)
			}
		}
		ts.Close()
		if got := cacheCount(s, "misses", n); got != 0 {
			t.Errorf("serve.cache.misses = %d, want 0", got)
		}
	}
}

// TestCachedParentConcurrency has goroutines repair and stream one
// cached parent at once. The parent is a spliced entry, so the first
// /ring requests also race to run its one full ring check. Every reply
// must be correct, and the parent's plan must come out untouched; under
// -race this also proves no request writes to a shared plan.
func TestCachedParentConcurrency(t *testing.T) {
	const n, workers = 6, 8
	s, _, _ := testServer(t, Config{MinN: n, MaxN: n, PoolSize: 2})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client{t, ts}

	parent := []perm.Code{spliceVertex(t, n)}
	code, body := c.get(query("repair", n, nil, parent[0]), 0)
	if r := summaryOK(t, code, body, n, 1); r.Repair != "splice" {
		t.Fatalf("repair outcome %q, want splice", r.Repair)
	}
	fs := faults.NewSet(n)
	if err := fs.AddVertex(parent[0]); err != nil {
		t.Fatal(err)
	}
	ent, ok := s.cache.get(planKey(fs, false), n)
	if !ok {
		t.Fatal("parent plan not cached")
	}
	before := ent.plan.Ring()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4; i++ {
				route, v := "ring", perm.Code(0)
				if (w+i)%2 == 0 {
					route = "repair"
					for v == 0 || v == parent[0] {
						v = perm.Pack(perm.Unrank(n, rng.Intn(perm.Factorial(n))))
					}
				}
				resp, err := ts.Client().Get(ts.URL + query(route, n, parent, v))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", route, resp.StatusCode, body)
					return
				}
				lines := strings.Count(string(body), "\n")
				if route == "ring" && lines < perm.Factorial(n)-2 {
					errs <- fmt.Errorf("/ring returned %d vertices", lines)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !slices.Equal(ent.plan.Ring(), before) {
		t.Fatal("cached parent ring changed")
	}
	if err := ent.verified(func() error {
		t.Error("no /ring ran the spliced parent's full check")
		return nil
	}); err != nil {
		t.Fatalf("cached parent failed its full check: %v", err)
	}
	if got := ent.plan.Faults().NumVertices(); got != 1 {
		t.Fatalf("cached parent holds %d faults, want 1", got)
	}
}

// TestPanicBecomesTraced500: a route that panics mid-session answers
// 500, is counted and logged like any other 5xx, auto-dumps a readable
// flight bundle, and leaves the server whole: the borrowed engine is
// replaced (the pool has one, so a leak would hang the next request)
// and the cached parent still answers a /repair.
func TestPanicBecomesTraced500(t *testing.T) {
	const n = 6
	s, _, logBuf := testServer(t, Config{MinN: n, MaxN: n, PoolSize: 1})
	dir := filepath.Join(t.TempDir(), "flight")
	f := s.Registry().Flight()
	f.SetAutoDump(dir, export.FlightBundleWriter(f))
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	s.mux.Handle("/panic", s.wrap(routeChaos, func(w http.ResponseWriter, r *http.Request, op *obs.Op, res *result) {
		req, err := ParseRequest(r.URL.Query())
		if err != nil {
			res.fail(w, http.StatusBadRequest, err)
			return
		}
		s.session(w, req, op, res, func(*entry, bool) { panic("injected invariant violation") })
	}))
	ts := httptest.NewServer(s.Handler())
	c := client{t, ts}
	pooled, _ := s.pools[n].acquire()
	s.pools[n].release(pooled)

	const trace obs.TraceID = 0xbad
	if code, body := c.get(fmt.Sprintf("/panic?n=%d", n), trace); code != http.StatusInternalServerError {
		t.Fatalf("panicking route: status %d (%s), want 500", code, body)
	}
	if got := s.red.errors[routeChaos][codeIndex(500)].Value(); got != 1 {
		t.Errorf("serve.errors{route=chaos,code=500} = %d, want 1", got)
	}
	if got := s.red.requests[routeChaos][codeIndex(500)][n].Value(); got != 1 {
		t.Errorf("serve.requests{route=chaos,code=500,n=%d} = %d, want 1", n, got)
	}

	e, _ := s.pools[n].acquire()
	s.pools[n].release(e)
	if e == pooled {
		t.Error("the panicking request's engine went back to the pool")
	}

	v := spliceVertex(t, n)
	code, body := c.get(query("repair", n, nil, v), 0)
	if r := summaryOK(t, code, body, n, 1); r.Repair != "splice" {
		t.Fatalf("repair after the panic: outcome %q, want splice", r.Repair)
	}
	if got := cacheCount(s, "misses", n); got != 0 {
		t.Errorf("serve.cache.misses = %d, want 0 (the cached parent answers)", got)
	}
	ts.Close()

	b, err := export.ReadFlightBundle(dir)
	if err != nil {
		t.Fatalf("auto-dumped flight bundle: %v", err)
	}
	var noted bool
	for _, r := range b.Events {
		if r.Trace == trace && r.Event == "obs.flight.error" && strings.Contains(fmt.Sprint(r.Fields), "injected invariant violation") {
			noted = true
		}
	}
	if !noted {
		t.Error("flight bundle lacks the panic's obs.flight.error record under the request trace")
	}
	recs, err := obs.ReadLog(strings.NewReader(string(logBuf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	var logged bool
	for _, r := range recs {
		if r.Trace == trace && r.Event == "serve.request" && r.Fields["cache"] == "hit" && fmt.Sprint(r.Fields["code"]) == "500" {
			logged = true
		}
	}
	if !logged {
		t.Error("no serve.request record with code=500 cache=hit under the panicking request's trace")
	}
}

// TestPlanKeyCanonical: the key names a fault set, not a spelling of
// it. Fault order and edge orientation do not matter; the dimension,
// the best-effort flag and every fault do.
func TestPlanKeyCanonical(t *testing.T) {
	set := func(n int, fv []string, fe [][2]string) *faults.Set {
		t.Helper()
		fs := faults.NewSet(n)
		for _, v := range fv {
			if err := fs.AddVertexString(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range fe {
			u, err := parseVertex(e[0], n)
			if err != nil {
				t.Fatal(err)
			}
			v, err := parseVertex(e[1], n)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	a := planKey(set(5, []string{"21345", "31245"}, [][2]string{{"12345", "21345"}, {"12345", "32145"}}), false)
	b := planKey(set(5, []string{"31245", "21345"}, [][2]string{{"32145", "12345"}, {"21345", "12345"}}), false)
	if a != b {
		t.Error("the same fault set in another order has another key")
	}
	for name, other := range map[string]string{
		"best_effort": planKey(set(5, []string{"21345", "31245"}, [][2]string{{"12345", "21345"}, {"12345", "32145"}}), true),
		"vertex":      planKey(set(5, []string{"21345"}, [][2]string{{"12345", "21345"}, {"12345", "32145"}}), false),
		"edge":        planKey(set(5, []string{"21345", "31245"}, [][2]string{{"12345", "21345"}}), false),
	} {
		if other == a {
			t.Errorf("changing the %s does not change the key", name)
		}
	}
	if planKey(set(5, nil, nil), false) == planKey(set(6, nil, nil), false) {
		t.Error("the fault-free sets of S_5 and S_6 share a key")
	}
}
