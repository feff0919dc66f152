package core

import (
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
	"repro/internal/substar"
)

// TestBestEffortRelaxedDiscipline drives the over-budget ring path that
// must drop the Lemma 3 discipline: S_5 with 4 faults can have three or
// more faulty blocks among five, which no cycle can keep non-adjacent.
func TestBestEffortRelaxedDiscipline(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for seed := 0; seed < 10; seed++ {
		fs := faults.RandomVertices(5, 4, rng)
		res, err := Embed(5, fs, Config{BestEffort: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Guaranteed {
			t.Fatal("over-budget result guaranteed")
		}
		if err := check.Ring(star.New(5), res.Ring, fs, 0); err != nil {
			t.Fatal(err)
		}
		// The bipartite ceiling still binds.
		if res.Len() > check.BipartiteUpperBound(5, fs) {
			t.Fatalf("seed %d: ring %d exceeds the ceiling", seed, res.Len())
		}
	}
}

// TestBestEffortPathBeyondBudget exercises the chain pipeline's
// degraded block targets.
func TestBestEffortPathBeyondBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	n := 6
	for seed := 0; seed < 5; seed++ {
		fs := faults.RandomVertices(n, 5, rng) // budget is 3
		var s, tt perm.Code
		for {
			s = perm.Pack(perm.Unrank(n, rng.Intn(perm.Factorial(n))))
			tt = perm.Pack(perm.Unrank(n, rng.Intn(perm.Factorial(n))))
			if s != tt && !fs.HasVertex(s) && !fs.HasVertex(tt) {
				break
			}
		}
		res, err := EmbedPath(n, fs, s, tt, Config{BestEffort: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Guaranteed {
			t.Fatal("over-budget path guaranteed")
		}
		if err := check.Path(star.New(n), res.Path, fs); err != nil {
			t.Fatal(err)
		}
		// Losing more than 4 vertices per fault would indicate the
		// degraded targets are too loose.
		if res.Len() < perm.Factorial(n)-4*5-2 {
			t.Fatalf("seed %d: best-effort path only %d vertices", seed, res.Len())
		}
	}
}

// TestBestEffortPathStrictRejects mirrors the ring budget check.
func TestBestEffortPathStrictRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	fs := faults.RandomVertices(6, 5, rng)
	var s, tt perm.Code
	for {
		s = perm.Pack(perm.Unrank(6, rng.Intn(720)))
		tt = perm.Pack(perm.Unrank(6, rng.Intn(720)))
		if s != tt && !fs.HasVertex(s) && !fs.HasVertex(tt) {
			break
		}
	}
	if _, err := EmbedPath(6, fs, s, tt, Config{}); err == nil {
		t.Fatal("over-budget strict path accepted")
	}
}

// TestChainSingleBlockDirect drives the junction backtracker on a
// one-block open chain: zero gaps, so the replay alone routes block 0
// from s to t. EmbedPath never gets here — its first partition position
// separates s from t, so their blocks always differ — hence the direct
// call. A fault-free S4 block has a Hamiltonian path between endpoints
// of opposite parity; endpoints of equal parity cannot bound a path with
// an even vertex count.
func TestChainSingleBlockDirect(t *testing.T) {
	n := 5
	pat := substar.Whole(n).Fix(5, 5)
	s := perm.IdentityCode(n)
	cases := []struct {
		name     string
		t        perm.Code
		feasible bool
	}{
		{"opposite parity", s.SwapFirst(2), true},
		{"same parity", s.SwapFirst(2).SwapFirst(3), false},
	}
	for _, c := range cases {
		plans, err := newBlockPlans([]substar.Pattern{pat}, faults.NewSet(n))
		if err != nil {
			t.Fatal(err)
		}
		plans[0].targets = chainTargets(false, 0, false)
		err = chooseJunctions(plans, nil, &chainEnds{s: s, t: c.t}, nil)
		if !c.feasible {
			if err == nil {
				t.Errorf("%s: routed a %d-vertex path between same-side endpoints", c.name, plans[0].length)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p := plans[0]
		if p.entry != s || p.exit != c.t || p.length != blockOrder {
			t.Fatalf("%s: plan entry %s exit %s length %d", c.name, p.entry.StringN(n), p.exit.StringN(n), p.length)
		}
		path, _, err := assemble(plans, Config{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := check.Path(star.New(n), path, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(path) != blockOrder || path[0] != s || path[len(path)-1] != c.t {
			t.Fatalf("%s: path of %d vertices from %s to %s", c.name, len(path), path[0].StringN(n), path[len(path)-1].StringN(n))
		}
	}
}
