// Command perfbench is the repository's benchmark. One invocation runs
// one seeded workload against the embedding engine and prints its
// metrics, ending with a one-line JSON result:
//
//	perfbench -workload uniform -seed 1 -seconds 30 -trace 0
//
// Every run sets up the engines and then runs three phases in turn, each
// on fault sets drawn from the seed:
//
//	embed-cold   closed loop, one caller: materialized Embed at n=9, |Fv|=6
//	ring-stream  closed loop, one caller: streaming embed -> SRS1 file ->
//	             read-back -> stream verifier at n=10, |Fv|=7
//	serve-churn  open loop against an in-process serve.Server at n=8 with
//	             the embed/repair/ring fault-churn mix at three fixed rates
//
// The workloads differ only in how the phases draw fault sets: uniform
// over S_n, or same-partite (every fault of a set on one side of the
// bipartition, the paper's tight worst case). See BENCHMARK.json.
//
// With -trace 0 the phases run untraced and report the end-to-end
// metrics. With -trace 1 they replay the same generated inputs through
// each layer's public functions under spans recorded by this package,
// report the per-layer metrics and each phase's tracing overhead, and
// write the spans to <out>/traces at exit.
//
// Every output is checked by this package's own verifier (verify.go),
// outside the timed regions; a failed check or request is counted in
// "failed" and makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// metric is one reported number; samples is the count it was reduced
// from (0 when it is not a reduction over samples).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// outcome is what a phase, or a whole run, returns.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
	tracer    *tracer // non-nil on traced phases
}

// options are the command-line inputs.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	kind    faultKind
	out     string // directory for scratch files and traces
}

// phaseRun is what a phase gets: the run's options (with the phase's
// own seed), its share of the measured time and the set-up engines.
type phaseRun struct {
	options
	budget time.Duration
	eng    *engines
}

// phaseState is one phase of an untraced run: step measures the
// phase's part of one cycle, and report reduces what every cycle
// measured to the phase's metrics.
type phaseState interface {
	step(cycle int) error
	report() *outcome
}

// cycles is how many times an untraced run goes through its phases. Each
// metric then draws its samples from the whole run, so a slowdown of the
// host lasting some seconds reaches only part of them.
const cycles = 3

// cycleTarget is the phase's timed total due by the end of cycle, and
// whether cycle is the last one.
func cycleTarget(budget time.Duration, cycle int) (time.Duration, bool) {
	return budget * time.Duration(cycle+1) / cycles, cycle == cycles-1
}

// phases run in this order in every cycle. Each gets share of -seconds
// for its measuring; a phase also runs to its minimum count, so a run can
// take longer than -seconds. A traced run runs each phase's trace once,
// in the same order, with the same share.
var phases = []struct {
	name  string
	share float64
	start func(phaseRun) (phaseState, error)
	trace func(phaseRun) (*outcome, error)
}{
	{"embed-cold", 0.28, startEmbedCold, traceEmbedCold},
	{"ring-stream", 0.22, startRingStream, traceRingStream},
	{"serve-churn", 0.5, startServeChurn, traceServeChurn},
}

// setupRepeats is how many times a run sets up its engines; setup_s is
// the median.
const setupRepeats = 3

// engines are what a run sets up before it measures: a warm materialized
// Embedder for embed-cold, a warm streaming Embedder for ring-stream and
// a warm in-process server for serve-churn.
type engines struct {
	embed  *core.Embedder
	stream *core.Embedder
	svc    *service
}

func newEngines() (*engines, error) {
	var e engines
	var err error
	if e.embed, err = newWarmEmbedder(embedColdN, core.Config{}); err != nil {
		return nil, err
	}
	if e.stream, err = newWarmEmbedder(ringStreamN, core.Config{Streaming: true}); err != nil {
		return nil, err
	}
	if e.svc, err = startService(); err != nil {
		return nil, err
	}
	return &e, nil
}

func (e *engines) stop() { e.svc.stop() }

func newWarmEmbedder(n int, cfg core.Config) (*core.Embedder, error) {
	e, err := core.NewEmbedder(n, cfg)
	if err != nil {
		return nil, err
	}
	return e, e.Warm()
}

// endToEnd and perLayer are the metrics a run reports with -trace 0 and
// -trace 1, by name and unit; BENCHMARK.json lists the same, and a run
// that would report any other set fails instead. The serve p95s are
// per-layer: on a 2-vCPU VM with noisy neighbours their run-to-run
// spread over ten seeds reached 0.3-0.4 of the median, beyond any
// regression bound an end-to-end metric may have.
var endToEnd = map[string]string{
	"setup_s": "s", "ok_ratio": "ratio",
	"embed_ms_p50": "ms", "embed_ms_p90": "ms",
	"stream_vps": "1/s", "stream_peak_heap_mib": "MiB",
	"serve_ms_p50.mid":        "ms",
	"serve_repair_ms_p50.mid": "ms", "serve_embed_ms_p50.mid": "ms", "serve_ring_ms_p50.mid": "ms",
	"serve_max_rps": "1/s",
}

var perLayer = map[string]string{
	"faults.separate_us": "us", "superring.build_r4_ms": "ms", "core.route_ms": "ms",
	"check.ring_ms": "ms", "core.embed_other_ms": "ms", "core.embed_traced_ms": "ms",
	"core.embed_accounted_ratio": "ratio", "core.embed_allocs": "count", "core.embed_alloc_mib": "MiB",
	"pathsearch.s4_queries": "count", "pathsearch.s4_hit_ratio": "ratio",
	"superring.build_r4_ms.n10": "ms", "core.stream_embed_ms": "ms", "core.cursor_ms": "ms",
	"ringio.write_ms": "ms", "ringio.read_ms": "ms", "check.ring_stream_ms": "ms",
	"ringio.file_bytes": "B", "core.stream_allocs": "count",
	"serve_ms_p95.low": "ms", "serve_ms_p95.mid": "ms", "serve_ms_p95.high": "ms",
	"serve.sched_late_ms_p95.low": "ms", "serve.sched_late_ms_p95.mid": "ms", "serve.sched_late_ms_p95.high": "ms",
	"serve.handler_ms_p50.embed": "ms", "serve.handler_ms_p50.repair": "ms", "serve.handler_ms_p50.ring": "ms",
	"serve.transport_ms_p50": "ms", "core.embed_ms_p50.n8": "ms", "core.repair_us_p50.n8": "us",
	"serve.ring_encode_ms": "ms", "serve.repair_reembed_share": "ratio", "serve.repair_replays": "count",
	"trace.overhead_ratio.embed-cold": "ratio", "trace.overhead_ratio.ring-stream": "ratio",
	"trace.overhead_ratio.serve-churn": "ratio",
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: uniform or same-partite")
	seed := fl.Int64("seed", 1, "seed for every generated input")
	seconds := fl.Float64("seconds", 30, "measured seconds per run, split between the phases")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	out := fl.String("out", ".bench_build", "directory for scratch files and traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	kind, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (uniform|same-partite), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, kind: kind, out: *out}
	if err := os.MkdirAll(filepath.Join(opts.out, "tmp"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := runWorkload(opts, *name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	if err := printReport(os.Stdout, *name, opts, res, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", *name, res.failed, res.attempted)
		return 1
	}
	return 0
}

// runWorkload sets up the engines setupRepeats times, then runs every
// phase on the last set-up, each from its own seed: untraced, cycles
// times in turn; traced, once each.
func runWorkload(opts options, name string) (*outcome, error) {
	eng, setup, err := measureSetup(setupRepeats, newEngines, (*engines).stop)
	if err != nil {
		return nil, err
	}
	defer eng.stop()
	runs := make([]phaseRun, len(phases))
	for i, ph := range phases {
		runs[i] = phaseRun{options: opts, eng: eng,
			budget: time.Duration(ph.share * opts.seconds * float64(time.Second))}
		runs[i].seed = opts.seed + int64(i)*1000
	}
	var results []*outcome
	if opts.trace {
		for i, ph := range phases {
			runtime.GC()
			res, err := ph.trace(runs[i])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ph.name, err)
			}
			path := filepath.Join(opts.out, "traces", fmt.Sprintf("%s-seed%d-%s.json", name, opts.seed, ph.name))
			if err := res.tracer.writeFile(path); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
			fmt.Printf("# spans written to %s\n", path)
			results = append(results, res)
		}
	} else {
		states := make([]phaseState, len(phases))
		for i, ph := range phases {
			if states[i], err = ph.start(runs[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", ph.name, err)
			}
		}
		for c := 0; c < cycles; c++ {
			for i, ph := range phases {
				runtime.GC() // every phase starts from the same live heap
				if err := states[i].step(c); err != nil {
					return nil, fmt.Errorf("%s: %w", ph.name, err)
				}
			}
		}
		for _, st := range states {
			results = append(results, st.report())
		}
	}
	total := &outcome{}
	for i, res := range results {
		fmt.Printf("# phase %s: attempted=%d failed=%d\n", phases[i].name, res.attempted, res.failed)
		total.attempted += res.attempted
		total.failed += res.failed
		total.metrics = append(total.metrics, res.metrics...)
	}
	if !opts.trace {
		total.metrics = append(total.metrics, setup, okRatio(total.attempted, total.failed))
	}
	return total, nil
}

// printReport prints one human-readable line per metric (with its
// sample count) and then the JSON result line. The metrics must be
// exactly want, in want's units.
func printReport(w io.Writer, name string, opts options, res *outcome, want map[string]string) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}

	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%v attempted=%d failed=%d fail_ratio=%.4f\n",
		name, opts.seed, opts.seconds, opts.trace, res.attempted, res.failed, ratio(res.failed, res.attempted))
	ms := append([]metric(nil), res.metrics...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		if unit, ok := want[m.name]; !ok || unit != m.unit {
			return fmt.Errorf("metric %s in %s is not in the manifest", m.name, m.unit)
		}
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		if m.samples > 0 {
			fmt.Fprintf(w, "%-34s %14.6g %-6s (n=%d)\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	var missing []string
	for name := range want {
		if _, ok := out.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not reported: %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func ratio[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// measureSetup runs setup repeats times, keeping the last result and
// releasing the others, and returns the setup_s metric: the median, so
// one slow repetition does not move it.
func measureSetup[T any](repeats int, setup func() (T, error), release func(T)) (T, metric, error) {
	var kept T
	var secs []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return kept, metric{}, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			release(kept)
		}
		kept = v
	}
	return kept, metric{name: "setup_s", value: median(secs), unit: "s", samples: len(secs)}, nil
}

// okRatio is the success share of attempted operations, the end-to-end
// form of fail_ratio (which is printed on the header line and carried by
// the result's attempted/failed fields).
func okRatio(attempted, failed int) metric {
	return metric{name: "ok_ratio", value: 1 - ratio(failed, attempted), unit: "ratio", samples: attempted}
}
