package main

import (
	"fmt"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/perm"
)

// faultKind is how a workload draws its fault sets; it is the one thing
// that tells the workloads apart.
type faultKind int

const (
	// uniform draws every fault uniformly over S_n.
	uniform faultKind = iota
	// samePartite puts every fault of a set on one side of the
	// bipartition, the paper's tight worst case.
	samePartite
)

// workloads maps each workload name to its fault kind.
var workloads = map[string]faultKind{"uniform": uniform, "same-partite": samePartite}

// faultGen draws the benchmark's seeded vertex-fault sets. It decodes
// ranks itself instead of calling the program's generators, so the
// inputs for a seed stay the same however the program changes.
type faultGen struct {
	n, k int
	kind faultKind
	rng  *rand.Rand
}

func newFaultGen(n, k int, kind faultKind, seed int64) *faultGen {
	return &faultGen{n: n, k: k, kind: kind, rng: rand.New(rand.NewSource(seed))}
}

// next returns the next fault set and its vertices in the packed word
// layout.
func (g *faultGen) next() (*faults.Set, []uint64, error) {
	vs := drawFaults(g.rng, g.n, g.k, g.kind, nil)
	fs, err := faultSet(g.n, vs)
	return fs, vs, err
}

// drawFaults appends k vertices, distinct from each other and from
// prior, to prior. Under samePartite they share the parity of prior[0],
// or of a random side when prior is empty.
func drawFaults(rng *rand.Rand, n, k int, kind faultKind, prior []uint64) []uint64 {
	parity := rng.Intn(2)
	if len(prior) > 0 {
		parity = parityOf(n, prior[0])
	}
	vs := append([]uint64(nil), prior...)
	total := factorial(n)
	for want := len(prior) + k; len(vs) < want; {
		v := unrank(n, rng.Intn(total))
		if containsWord(vs, v) || (kind == samePartite && parityOf(n, v) != parity) {
			continue
		}
		vs = append(vs, v)
	}
	return vs
}

func containsWord(xs []uint64, v uint64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// faultSet builds the program's fault set from packed vertices.
func faultSet(n int, vs []uint64) (*faults.Set, error) {
	fs := faults.NewSet(n)
	for _, v := range vs {
		if err := fs.AddVertex(perm.Code(v)); err != nil {
			return nil, fmt.Errorf("fault %#x: %w", v, err)
		}
	}
	return fs, nil
}

// unrank returns the permutation of 1..n with the given lexicographic
// rank, packed one symbol-1 per 4-bit position.
func unrank(n, r int) uint64 {
	var used uint32
	var v uint64
	for i := 0; i < n; i++ {
		f := factorial(n - 1 - i)
		d := r / f
		r %= f
		// The d-th smallest symbol not used yet.
		s := 0
		for ; ; s++ {
			if used&(1<<uint(s)) != 0 {
				continue
			}
			if d == 0 {
				break
			}
			d--
		}
		used |= 1 << uint(s)
		v |= uint64(s) << (4 * uint(i))
	}
	return v
}

// parityOf is the permutation's parity (its partite set in S_n).
func parityOf(n int, v uint64) int {
	inv := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v>>(4*uint(i))&0xF > v>>(4*uint(j))&0xF {
				inv++
			}
		}
	}
	return inv & 1
}

// formatVertex writes a packed vertex in the paper's notation.
func formatVertex(n int, v uint64) string {
	const symbols = "123456789abcdefg"
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[i] = symbols[v>>(4*uint(i))&0xF]
	}
	return string(b)
}
