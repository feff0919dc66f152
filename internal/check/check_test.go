package check

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// refRing is the independent reference the verifier is held to: the
// original map-based check, kept in the tests only. It shares no code
// with StreamVerifier beyond the perm and faults primitives.
func refRing(g star.Graph, cycle []perm.Code, fs *faults.Set, minLen int) error {
	n := g.N()
	if len(cycle) < minLen {
		return fmt.Errorf("%w: length %d < required %d", ErrInvalidRing, len(cycle), minLen)
	}
	if len(cycle) < 3 {
		return fmt.Errorf("%w: a cycle needs >= 3 vertices, got %d", ErrInvalidRing, len(cycle))
	}
	if err := refDistinctHealthy(n, cycle, fs); err != nil {
		return err
	}
	for i, v := range cycle {
		if err := refEdge(g, v, cycle[(i+1)%len(cycle)], fs); err != nil {
			return err
		}
	}
	return nil
}

// refPath is refRing's open-path counterpart: no wraparound edge.
func refPath(g star.Graph, path []perm.Code, fs *faults.Set) error {
	if len(path) == 0 {
		return fmt.Errorf("%w: empty path", ErrInvalidRing)
	}
	if err := refDistinctHealthy(g.N(), path, fs); err != nil {
		return err
	}
	for i := 0; i+1 < len(path); i++ {
		if err := refEdge(g, path[i], path[i+1], fs); err != nil {
			return err
		}
	}
	return nil
}

// refDistinctHealthy checks validity, distinctness (by hash map) and
// vertex health.
func refDistinctHealthy(n int, seq []perm.Code, fs *faults.Set) error {
	seen := make(map[perm.Code]int, len(seq))
	for i, v := range seq {
		if !v.Valid(n) {
			return fmt.Errorf("%w: entry %d is not a vertex of S_%d", ErrInvalidRing, i, n)
		}
		if j, dup := seen[v]; dup {
			return fmt.Errorf("%w: vertex %s repeats at positions %d and %d", ErrInvalidRing, v.StringN(n), j, i)
		}
		seen[v] = i
		if fs != nil && fs.HasVertex(v) {
			return fmt.Errorf("%w: faulty vertex %s at position %d", ErrInvalidRing, v.StringN(n), i)
		}
	}
	return nil
}

// refEdge checks one used edge for adjacency and health.
func refEdge(g star.Graph, v, w perm.Code, fs *faults.Set) error {
	if !g.Adjacent(v, w) {
		return fmt.Errorf("%w: %s and %s are not adjacent", ErrInvalidRing, v.StringN(g.N()), w.StringN(g.N()))
	}
	if fs != nil && fs.HasEdge(v, w) {
		return fmt.Errorf("%w: faulty edge {%s, %s} used", ErrInvalidRing, v.StringN(g.N()), w.StringN(g.N()))
	}
	return nil
}

// hexagon returns the 6-cycle that is S_3.
func hexagon() []perm.Code {
	v := perm.IdentityCode(3)
	out := make([]perm.Code, 0, 6)
	dim := 2
	for i := 0; i < 6; i++ {
		out = append(out, v)
		v = v.SwapFirst(dim)
		dim = 5 - dim
	}
	return out
}

func TestRingAcceptsValidCycle(t *testing.T) {
	g := star.New(3)
	if err := Ring(g, hexagon(), nil, 6); err != nil {
		t.Fatalf("valid hexagon rejected: %v", err)
	}
}

func TestRingRejections(t *testing.T) {
	g := star.New(3)
	hex := hexagon()

	cases := []struct {
		name  string
		cycle []perm.Code
		fs    func() *faults.Set
		min   int
	}{
		{"too short vs bound", hex, nil, 7},
		{"under three vertices", hex[:2], nil, 0},
		{"duplicate vertex", append(append([]perm.Code{}, hex...), hex[0]), nil, 0},
		{"non-adjacent hop", []perm.Code{hex[0], hex[2], hex[4]}, nil, 0},
		{"faulty vertex", hex, func() *faults.Set {
			fs := faults.NewSet(3)
			fs.AddVertex(hex[2])
			return fs
		}, 0},
		{"faulty edge", hex, func() *faults.Set {
			fs := faults.NewSet(3)
			fs.AddEdge(hex[1], hex[2])
			return fs
		}, 0},
		{"faulty closing edge", hex, func() *faults.Set {
			fs := faults.NewSet(3)
			fs.AddEdge(hex[5], hex[0])
			return fs
		}, 0},
	}
	for _, c := range cases {
		var fs *faults.Set
		if c.fs != nil {
			fs = c.fs()
		}
		if refRing(g, c.cycle, fs, c.min) == nil {
			t.Fatalf("%s: the reference accepts the case", c.name)
		}
		err := Ring(g, c.cycle, fs, c.min)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !errors.Is(err, ErrInvalidRing) {
			t.Errorf("%s: wrong error type: %v", c.name, err)
		}
	}
}

func TestRingRejectsForeignVertex(t *testing.T) {
	g := star.New(3)
	bad := append([]perm.Code{}, hexagon()...)
	bad[3] = perm.None
	if err := Ring(g, bad, nil, 0); err == nil {
		t.Fatal("foreign vertex accepted")
	}
}

// TestPath holds Path to refPath on valid and broken paths, including
// the open wraparound a path may have and a ring may not.
func TestPath(t *testing.T) {
	g := star.New(3)
	hex := hexagon()
	faultyMid := faults.NewSet(3)
	faultyMid.AddVertex(hex[1])
	faultyEdge := faults.NewSet(3)
	faultyEdge.AddEdge(hex[1], hex[2])
	cases := []struct {
		name string
		path []perm.Code
		fs   *faults.Set
		ok   bool
	}{
		{"valid", hex[:4], nil, true},
		{"whole hexagon", hex, nil, true},
		{"single vertex", hex[:1], nil, true},
		{"open wraparound", []perm.Code{hex[0], hex[1], hex[2]}, nil, true},
		{"empty", nil, nil, false},
		{"disconnected pair", []perm.Code{hex[0], hex[2]}, nil, false},
		{"duplicate vertex", []perm.Code{hex[0], hex[1], hex[0]}, nil, false},
		{"foreign vertex", []perm.Code{hex[0], perm.None}, nil, false},
		{"faulty vertex", hex[:3], faultyMid, false},
		{"faulty edge", hex[:3], faultyEdge, false},
	}
	for _, c := range cases {
		ref := refPath(g, c.path, c.fs)
		if (ref == nil) != c.ok {
			t.Fatalf("%s: reference verdict %v, table says ok=%v", c.name, ref, c.ok)
		}
		if got := Path(g, c.path, c.fs); (got == nil) != c.ok {
			t.Errorf("%s: Path=%v, reference=%v", c.name, got, ref)
		} else if got != nil && !errors.Is(got, ErrInvalidRing) {
			t.Errorf("%s: error not wrapping ErrInvalidRing: %v", c.name, got)
		}
	}
}

func TestBipartiteUpperBound(t *testing.T) {
	n := 4
	if got := BipartiteUpperBound(n, nil); got != 24 {
		t.Fatalf("fault-free bound %d", got)
	}
	fs := faults.NewSet(n)
	fs.AddVertexString("1234") // even
	if got := BipartiteUpperBound(n, fs); got != 22 {
		t.Fatalf("one fault: %d", got)
	}
	fs.AddVertexString("1342") // also even (cycle of length 3)
	if got := BipartiteUpperBound(n, fs); got != 20 {
		t.Fatalf("two same-side faults: %d", got)
	}
	fs.AddVertexString("2134") // odd
	if got := BipartiteUpperBound(n, fs); got != 20 {
		t.Fatalf("2+1 faults: %d", got)
	}
}

func TestGuarantees(t *testing.T) {
	if GuaranteeHCH(6, 3) != 714 {
		t.Error("GuaranteeHCH")
	}
	if GuaranteeTseng(6, 3) != 708 {
		t.Error("GuaranteeTseng")
	}
	if GuaranteeLatifi(6, 3) != 714 {
		t.Error("GuaranteeLatifi")
	}
}
