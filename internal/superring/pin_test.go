package superring

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/substar"
)

// patternsHash is the FNV-64a digest of a supervertex sequence: each
// pattern's n symbol bytes (Star as 0), in order.
func patternsHash(ps []substar.Pattern) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, perm.MaxN)
	for _, p := range ps {
		buf = buf[:0]
		for i := 1; i <= p.N(); i++ {
			buf = append(buf, p.SymbolAt(i))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// refineRing partitions S_n along positions into an R4 the way
// core.BuildR4 does: mid refinements carry opts, the last one (or the
// single partition at n = 5) adds the Lemma 3 discipline when strict.
func refineRing(n int, positions []int, opts Options, strict bool) (*Ring, error) {
	final := opts
	final.SpreadFaults, final.HealthyJunctions = strict, strict
	first := opts
	if len(positions) == 1 {
		first = final
	}
	r, err := Initial(n, positions[0], first)
	for j := 1; err == nil && j < len(positions); j++ {
		o := opts
		if j == len(positions)-1 {
			o = final
		}
		r, err = r.Refine(positions[j], o)
	}
	return r, err
}

// refineChain is refineRing for the chain anchored at s and t; strict
// applies the Lemma 3 discipline at the last refinement (or at n = 5).
func refineChain(n int, positions []int, s, t perm.Code, opts Options, strict bool) (*Chain, error) {
	final := opts
	final.SpreadFaults, final.HealthyJunctions = strict, strict
	first := opts
	if len(positions) == 1 {
		first = final
	}
	c, err := InitialChain(n, positions[0], s, t, first)
	for j := 1; err == nil && j < len(positions); j++ {
		o := opts
		if j == len(positions)-1 {
			o = final
		}
		c, err = c.Refine(positions[j], s, t, o)
	}
	return c, err
}

// TestRefinePins commits the exact supervertex sequences the refiner
// produces for fixed seeded inputs: R4s under the paper's discipline,
// the Latifi-Bagherzadeh exclusion ring, and anchored chains. Any
// change to partitioning, junction selection or clique threading that
// moves a single supervertex fails here, so refactors of the refiner
// are held to identical output.
func TestRefinePins(t *testing.T) {
	// Generated from the refiner before the ring and chain refinements
	// were merged into one pass.
	wants := map[string]uint64{
		"ring/uniform/n5":      0x85327bb4044d70a0,
		"ring/uniform/n6":      0x5fcd35ac44fdeebd,
		"ring/uniform/n7":      0x857781d7a369fb3f,
		"ring/uniform/n8":      0x0475991fec658f91,
		"ring/uniform/n9":      0x1177765fd6475043,
		"ring/same-partite/n5": 0xcee7df6e80650866,
		"ring/same-partite/n6": 0xa732a7d8cb770cdf,
		"ring/same-partite/n7": 0x8713be1c0bdd84ef,
		"ring/same-partite/n8": 0x8c5e7327054ed0d9,
		"ring/same-partite/n9": 0x67e3499bcbbb159b,
		"ring/exclude/n7":      0x4df5011d6c9d1a33,
		"chain/strict/n6":      0xe10efa243904ee03,
		"chain/strict/n7":      0x743113a3448fdf45,
		"chain/strict/n8":      0xfe5e7a883e0ec125,
		"chain/strict/n9":      0x2a58a5f07044fa8d,
		"chain/relaxed/n6":     0xe10efa243904ee03,
		"chain/relaxed/n7":     0xae00d7b2f91380af,
		"chain/relaxed/n8":     0x617ba88799539ae5,
		"chain/relaxed/n9":     0x2d62749266254ba5,
	}
	pins := 0
	check := func(name string, got interface {
		Len() int
		Vertices() []substar.Pattern
	}, err error) {
		pins++
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if h := patternsHash(got.Vertices()); h != wants[name] {
			t.Errorf("%s: hash %#016x, want %#016x (len %d)", name, h, wants[name], got.Len())
		}
	}

	for n := 5; n <= 9; n++ {
		for _, fc := range []struct {
			name string
			fs   *faults.Set
		}{
			{"uniform", faults.RandomVertices(n, n-3, rand.New(rand.NewSource(int64(1000+n))))},
			{"same-partite", faults.SamePartiteVertices(n, n-3, n%2, rand.New(rand.NewSource(int64(2000+n))))},
		} {
			w := weightFor(fc.fs)
			positions, _ := fc.fs.SeparatingPositions()
			r, err := refineRing(n, positions, Options{FaultCount: w}, true)
			if err == nil && !(r.P1(w) && r.P2() && r.P3(w)) {
				err = fmt.Errorf("R4 violates (P1)-(P3)")
			}
			check(fmt.Sprintf("ring/%s/n%d", fc.name, n), r, err)
		}
	}

	// The clustered baseline drops one order-5 supervertex of S_7 and
	// partitions along its fixed positions first.
	cluster := substar.Whole(7).Fix(4, 2).Fix(6, 5)
	r, err := refineRing(7, []int{4, 6, 2}, Options{Exclude: func(p substar.Pattern) bool { return p == cluster }}, false)
	if err == nil && r.Len() != (perm.Factorial(7)-perm.Factorial(5))/24 {
		err = fmt.Errorf("exclusion ring has %d blocks", r.Len())
	}
	check("ring/exclude/n7", r, err)

	for n := 6; n <= 9; n++ {
		rng := rand.New(rand.NewSource(int64(6000 + n)))
		fs := faults.RandomVertices(n, n-3, rng)
		s, tt, _ := chainAnchors(t, n, rng, fs)
		positions, _, err := fs.SeparatingPositionsSplitting(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		for _, strict := range []bool{true, false} {
			c, err := refineChain(n, positions, s, tt, Options{FaultCount: weightFor(fs)}, strict)
			if err == nil && !(c.At(0).Contains(s) && c.At(c.Len()-1).Contains(tt)) {
				err = fmt.Errorf("anchors left the chain ends")
			}
			name := fmt.Sprintf("chain/relaxed/n%d", n)
			if strict {
				name = fmt.Sprintf("chain/strict/n%d", n)
			}
			check(name, c, err)
		}
	}
	if pins != len(wants) {
		t.Errorf("%d pins checked, %d committed", pins, len(wants))
	}
}
