package export

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

var updatePin = flag.Bool("update-pin", false, "rewrite the export pin goldens from current output")

// pinRegistry builds a fixed registry on a manual clock: plain and
// labeled metrics of every kind in the root and in a two-level child,
// and op-spanned histograms whose exemplars carry fixed trace ids. It
// returns the root and a sampler that has taken two samples of it.
func pinRegistry(t *testing.T) (*obs.Registry, *Sampler) {
	t.Helper()
	clock := obs.NewManual(time.Unix(1000, 0))
	root := obs.NewRegistry()
	root.SetClock(clock)
	mid := root.Child("machine", "m1")
	leaf := mid.Child("shard", "s2")

	for i, r := range []*obs.Registry{root, mid, leaf} {
		k := int64(i + 1)
		r.Counter("pin.plain.count").Add(3 * k)
		r.Gauge("pin.plain.level").Set(-7 * k)
		h := r.Histogram("pin.plain.latency")
		for j := int64(1); j <= 5; j++ {
			h.Observe(time.Duration(j*k) * time.Millisecond)
		}
	}
	for _, r := range []*obs.Registry{root, leaf} {
		r.CounterVec("pin.vec.requests", "route", "code").With("route", "/embed", "code", "200").Add(11)
		r.CounterVec("pin.vec.requests", "route", "code").With("route", "/ring", "code", "500").Inc()
		r.GaugeVec("pin.vec.depth", "queue").With("queue", "a b\"c").Set(4)
		hv := r.HistogramVec("pin.vec.wait", "route")
		hv.With("route", "/embed").ObserveTrace(3*time.Millisecond, 0xabc)
		hv.With("route", "/embed").Observe(9 * time.Millisecond)
		hv.With("route", "/repair").ObserveTrace(40*time.Microsecond, 0xdef)
	}

	for i, r := range []*obs.Registry{root, leaf} {
		op := r.StartOpTrace("pin.op.run", obs.TraceID(0x1000+i))
		clock.Advance(time.Millisecond)
		sp := op.Span("pin.phase.a")
		clock.Advance(2 * time.Millisecond)
		grand := sp.Span("pin.phase.b")
		clock.Advance(500 * time.Microsecond)
		grand.End()
		sp.End()
		op.Done()
	}

	s := NewSampler(root, SamplerConfig{Capacity: 4})
	s.Sample()
	clock.Advance(time.Second)
	root.Counter("pin.plain.count").Add(5)
	leaf.GaugeVec("pin.vec.depth", "queue").With("queue", "a b\"c").Set(9)
	leaf.Histogram("pin.plain.latency").Observe(70 * time.Millisecond)
	s.Sample()
	return root, s
}

// TestExportPin pins the three metric exports — OpenMetrics text, the
// snapshot JSON (of the root and of a child) and the Sampler's series —
// byte for byte. Any change to how the registry stores or enumerates
// metrics must leave these outputs untouched. Regenerate with
// go test ./internal/obs/export -run TestExportPin -update-pin.
func TestExportPin(t *testing.T) {
	root, s := pinRegistry(t)
	leaf := root.Child("machine", "m1").Child("shard", "s2")

	var om bytes.Buffer
	if err := WriteOpenMetrics(&om, root.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateOpenMetrics(om.Bytes()); err != nil {
		t.Fatalf("pinned exposition does not validate: %v", err)
	}
	var js bytes.Buffer
	if err := root.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := leaf.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	series, err := json.MarshalIndent(s.Series(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"pin.openmetrics.txt", om.Bytes()},
		{"pin.snapshot.json", js.Bytes()},
		{"pin.series.json", append(series, '\n')},
	} {
		path := filepath.Join("testdata", g.file)
		if *updatePin {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from the pinned golden:\n--- got\n%s\n--- want\n%s", g.file, g.got, want)
		}
	}
}
