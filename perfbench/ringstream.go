package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/ringio"
	"repro/internal/star"
)

// ring-stream: one caller, closed loop, at n=10 with |Fv| = 7. A pass is
// a streaming embed, the cursor drained through the SRS1 writer to a
// file, and the file read back through the stream verifier.
const (
	ringStreamN      = 10
	ringStreamFaults = 7
	// ringStreamMinPasses is the least number of passes a run holds.
	ringStreamMinPasses = 2
)

// passFile names the pass's scratch file inside the output directory.
func passFile(opts options) string {
	return filepath.Join(opts.out, "tmp", fmt.Sprintf("ring-stream-%d.srs", os.Getpid()))
}

// ringStream is the ring-stream phase of an untraced run.
type ringStream struct {
	p                 phaseRun
	gen               *faultGen
	vps, heap         []float64 // per checked pass
	timed, wall       time.Duration
	attempted, failed int
}

func startRingStream(p phaseRun) (phaseState, error) {
	return &ringStream{p: p, gen: newFaultGen(ringStreamN, ringStreamFaults, p.kind, p.seed)}, nil
}

// step runs passes until the timed total reaches the cycle's share of
// the budget and, in the last cycle, the minimum count.
func (s *ringStream) step(cycle int) error {
	n := ringStreamN
	e := s.p.eng.stream
	path := passFile(s.p.options)
	defer os.Remove(path)
	target, last := cycleTarget(s.p.budget, cycle)
	start := time.Now()
	for (s.timed < target || last && len(s.vps) < ringStreamMinPasses) && s.wall+time.Since(start) < loopWallCap {
		fs, vs, err := s.gen.next()
		if err != nil {
			return err
		}
		s.attempted++
		runtime.GC() // every pass starts from the same live heap
		hp := startHeapPeak()
		res, err := streamPass(e, fs, path)
		peak := hp.stop()
		s.timed += res.wall
		if err == nil {
			err = checkStreamPass(n, vs, res)
		}
		if err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "ring-stream: pass %d: %v\n", s.attempted, err)
			continue
		}
		s.vps = append(s.vps, float64(res.length)/res.wall.Seconds())
		s.heap = append(s.heap, float64(peak)/(1<<20))
	}
	s.wall += time.Since(start)
	return nil
}

func (s *ringStream) report() *outcome {
	return &outcome{attempted: s.attempted, failed: s.failed, metrics: []metric{
		pctMetric("stream_vps", s.vps, 50, "1/s"),
		pctMetric("stream_peak_heap_mib", s.heap, 50, "MiB"),
	}}
}

// passResult is what one pass leaves for the independent check.
type passResult struct {
	plan    *core.Plan
	length  int
	wall    time.Duration
	emitted ringHash // the cursor's emission as written
	read    ringHash // the SRS1 read-back as verified
}

// hashing wraps a vertex iterator so every vertex it yields is folded
// into h.
func hashing(next func() (perm.Code, bool), h *ringHash) func() (perm.Code, bool) {
	return func() (perm.Code, bool) {
		v, ok := next()
		if ok {
			h.add(uint64(v))
		}
		return v, ok
	}
}

// streamPass runs one timed pass.
func streamPass(e *core.Embedder, fs *faults.Set, path string) (passResult, error) {
	n := e.N()
	res := passResult{emitted: newRingHash(), read: newRingHash()}
	t0 := time.Now()
	plan, err := e.Embed(fs)
	if err != nil {
		return res, fmt.Errorf("embed: %w", err)
	}
	res.plan, res.length = plan, plan.RingLen()
	if err := writeRing(plan, path, &res.emitted); err != nil {
		return res, err
	}
	if err := readCheck(path, fs, n, &res.read); err != nil {
		return res, err
	}
	res.wall = time.Since(t0)
	return res, nil
}

// writeRing drains a fresh cursor of plan through the SRS1 writer into
// path, hashing the emission into h when h is non-nil.
func writeRing(plan *core.Plan, path string, h *ringHash) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cur := plan.Cursor()
	next := cur.Next
	if h != nil {
		next = hashing(next, h)
	}
	werr := ringio.WriteBinaryStream(f, plan.N(), plan.RingLen(), next)
	cerr := f.Close()
	switch {
	case werr != nil:
		return fmt.Errorf("write: %w", werr)
	case cur.Err() != nil:
		return fmt.Errorf("cursor: %w", cur.Err())
	case cerr != nil:
		return fmt.Errorf("write: %w", cerr)
	}
	return nil
}

// readCheck reads path back and runs the program's stream verifier on
// it (with fs nil, it only drains the reader), hashing the read-back
// into h.
func readCheck(path string, fs *faults.Set, n int, h *ringHash) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := ringio.ReadBinaryStream(f)
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	next := hashing(sr.Next, h)
	if fs == nil {
		for _, ok := next(); ok; _, ok = next() {
		}
	} else if _, err := check.RingStream(star.New(n), next, fs, factorial(n)-2*fs.NumVertices()); err != nil {
		return fmt.Errorf("stream verifier: %w", err)
	}
	if sr.Err() != nil {
		return fmt.Errorf("read: %w", sr.Err())
	}
	return nil
}

// checkStreamPass is the independent, untimed check of a pass: a fresh
// cursor's emission must be a healthy ring of the guaranteed length, and
// both the written emission and the read-back must match it in count
// and order-sensitive hash.
func checkStreamPass(n int, vs []uint64, res passResult) error {
	c := newRingChecker(n, vs)
	cur := res.plan.Cursor()
	for v, ok := cur.Next(); ok; v, ok = cur.Next() {
		c.add(uint64(v))
	}
	if cur.Err() != nil {
		return fmt.Errorf("check cursor: %w", cur.Err())
	}
	if err := c.close(factorial(n) - 2*len(vs)); err != nil {
		return fmt.Errorf("independent check: %w", err)
	}
	switch {
	case c.hash.count != res.length:
		return fmt.Errorf("cursor emitted %d vertices, plan reports %d", c.hash.count, res.length)
	case res.emitted != c.hash:
		return errors.New("written emission differs from the cursor's ring")
	case res.read != c.hash:
		return errors.New("SRS1 read-back differs from the cursor's emission")
	}
	return nil
}

// heapPeak samples the live-heap-objects size every millisecond and
// keeps the maximum, until stop.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

// traceRingStream interleaves, per fault set, one untraced pass (the
// overhead reference) and one traced pass whose stages run separately
// under spans so each layer's cost can be split out: R4 construction,
// the streaming embed (with its allocation delta), a bare cursor drain,
// the SRS1 write, a bare read-back drain and the stream verifier. Both
// passes are checked independently.
func traceRingStream(p phaseRun) (*outcome, error) {
	n := ringStreamN
	e := p.eng.stream
	gen := newFaultGen(n, ringStreamFaults, p.kind, p.seed)
	path := passFile(p.options)
	defer os.Remove(path)
	tr := newTracer()
	var untraced, tracedE2E, writeOnly, verifyOnly []time.Duration
	var allocs, fileBytes []float64
	attempted, failed := 0, 0
	start := time.Now()
	for op := 0; time.Since(start) < p.budget || op < 1; op++ {
		fs, vs, err := gen.next()
		if err != nil {
			return nil, err
		}
		attempted++
		runtime.GC()
		res, err := streamPass(e, fs, path)
		if err == nil {
			err = checkStreamPass(n, vs, res)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "ring-stream: traced op %d: %v\n", op, err)
			continue
		}
		untraced = append(untraced, res.wall)

		runtime.GC()
		var stages struct{ embed, cursor, write, read, verify time.Duration }
		var plan *core.Plan
		var m0, m1 runtime.MemStats
		root := tr.begin("pass", op, -1)
		_, err = replayBuildR4(tr, op, root, n, fs)
		if err == nil {
			runtime.ReadMemStats(&m0)
			stages.embed, err = tr.timed("core.stream_embed", op, root, func() (err error) {
				plan, err = e.Embed(fs)
				return err
			})
			runtime.ReadMemStats(&m1)
		}
		if err == nil {
			stages.cursor, err = tr.timed("core.cursor", op, root, func() error {
				cur := plan.Cursor()
				for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				}
				return cur.Err()
			})
		}
		traced := passResult{plan: plan, emitted: newRingHash(), read: newRingHash()}
		if err == nil {
			traced.length = plan.RingLen()
			stages.write, err = tr.timed("ringio.write", op, root, func() error { return writeRing(plan, path, &traced.emitted) })
		}
		if err == nil {
			stages.read, err = tr.timed("ringio.read", op, root, func() error { return readCheck(path, nil, n, &traced.read) })
		}
		if err == nil {
			h := newRingHash()
			stages.verify, err = tr.timed("check.ring_stream", op, root, func() error { return readCheck(path, fs, n, &h) })
		}
		tr.end(root)
		var st os.FileInfo
		if err == nil {
			st, err = os.Stat(path)
		}
		if err == nil {
			err = checkStreamPass(n, vs, traced)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "ring-stream: traced op %d: %v\n", op, err)
			continue
		}
		tracedE2E = append(tracedE2E, stages.embed+stages.write+stages.verify)
		writeOnly = append(writeOnly, stages.write-stages.cursor)
		verifyOnly = append(verifyOnly, stages.verify-stages.read)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		fileBytes = append(fileBytes, float64(st.Size()))
	}
	return &outcome{attempted: attempted, failed: failed, tracer: tr, metrics: []metric{
		durMetric("superring.build_r4_ms.n10", tr.durations("superring.build_r4"), "ms"),
		durMetric("core.stream_embed_ms", tr.durations("core.stream_embed"), "ms"),
		durMetric("core.cursor_ms", tr.durations("core.cursor"), "ms"),
		durMetric("ringio.write_ms", writeOnly, "ms"),
		durMetric("ringio.read_ms", tr.durations("ringio.read"), "ms"),
		durMetric("check.ring_stream_ms", verifyOnly, "ms"),
		pctMetric("ringio.file_bytes", fileBytes, 50, "B"),
		pctMetric("core.stream_allocs", allocs, 50, "count"),
		overheadMetric("ring-stream", tracedE2E, untraced),
	}}, nil
}
