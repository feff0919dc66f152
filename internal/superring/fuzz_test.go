package superring

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
)

// FuzzRefine drives the shared refiner to order 4 on a within-budget
// fault set, as a ring under the paper's discipline or as a chain
// anchored at random healthy s and t split by the first partition.
// Every result must validate; a chain must keep its anchors at its
// ends, and a ring must have (P1), (P2) and (P3).
func FuzzRefine(f *testing.F) {
	f.Add(uint8(0), uint8(2), false, int64(1)) // n=5 ring, 2 faults
	f.Add(uint8(1), uint8(3), true, int64(7))  // n=6 chain, 3 faults
	f.Add(uint8(2), uint8(4), false, int64(42))
	f.Add(uint8(2), uint8(4), true, int64(42))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, chain bool, seed int64) {
		n := 5 + int(nRaw)%3     // S_5 .. S_7
		k := int(kRaw) % (n - 2) // 0 .. n-3 vertex faults
		rng := rand.New(rand.NewSource(seed))
		fs := faults.RandomVertices(n, k, rng)
		w := weightFor(fs)

		if !chain {
			positions, _ := fs.SeparatingPositions()
			r, err := refineRing(n, positions, Options{FaultCount: w}, true)
			if err != nil {
				t.Fatalf("ring n=%d |Fv|=%d seed=%d: %v", n, k, seed, err)
			}
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
			if !r.P1(w) || !r.P2() || !r.P3(w) {
				t.Fatalf("ring n=%d |Fv|=%d seed=%d: R4 violates (P1)-(P3)", n, k, seed)
			}
			return
		}

		s, tt, _ := chainAnchors(t, n, rng, fs)
		positions, _, err := fs.SeparatingPositionsSplitting(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		// The anchors can make the strict discipline unsatisfiable; the
		// relaxed construction must then succeed.
		c, err := refineChain(n, positions, s, tt, Options{FaultCount: w}, true)
		if err != nil {
			c, err = refineChain(n, positions, s, tt, Options{FaultCount: w}, false)
		}
		if err != nil {
			t.Fatalf("chain n=%d |Fv|=%d seed=%d: %v", n, k, seed, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.Order() != 4 || !c.At(0).Contains(s) || !c.At(c.Len()-1).Contains(tt) {
			t.Fatalf("chain n=%d seed=%d: order %d, anchors at the ends %v/%v",
				n, seed, c.Order(), c.At(0).Contains(s), c.At(c.Len()-1).Contains(tt))
		}
	})
}
