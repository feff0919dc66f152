package check_test

import (
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

var (
	s5Once sync.Once
	s5Ham  []perm.Code
	s5Err  error
)

// s5Ring returns a fault-free Hamiltonian cycle of S_5, embedded once.
func s5Ring(tb testing.TB) []perm.Code {
	s5Once.Do(func() {
		var res *core.Result
		if res, s5Err = core.Embed(5, nil, core.Config{Workers: 1}); s5Err == nil {
			s5Ham = res.Ring
			s5Err = check.RefRing(star.New(5), s5Ham, nil, 120)
		}
	})
	if s5Err != nil {
		tb.Fatalf("base ring: %v", s5Err)
	}
	return s5Ham
}

// FuzzVerifyRing mutates a valid S_5 ring — swap two entries,
// duplicate one over another, drop one, insert a copy, replace one by
// a foreign word, truncate, or fault a used vertex or edge — and
// requires Ring, RingStream and the map-based reference to agree on
// accept or reject, and Path to agree with the reference path check on
// the same sequence.
func FuzzVerifyRing(f *testing.F) {
	for op := uint8(0); op < 8; op++ {
		f.Add(op, uint8(3), uint8(40), uint8(112))
	}
	f.Add(uint8(0), uint8(5), uint8(5), uint8(120))
	f.Add(uint8(7), uint8(119), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, op, iRaw, jRaw, minRaw uint8) {
		base := s5Ring(t)
		g := star.New(5)
		ring := append([]perm.Code(nil), base...)
		i, j := int(iRaw)%len(ring), int(jRaw)%len(ring)
		minLen := int(minRaw) % (len(ring) + 2)
		fs := faults.NewSet(5)
		switch op % 8 {
		case 0:
			ring[i], ring[j] = ring[j], ring[i]
		case 1:
			ring[j] = ring[i]
		case 2:
			ring = append(ring[:i], ring[i+1:]...)
		case 3:
			ring = append(ring[:j], append([]perm.Code{ring[i]}, ring[j:]...)...)
		case 4:
			ring[i] ^= perm.Code(jRaw) << 4
		case 5:
			fs.AddVertex(ring[i])
		case 6:
			fs.AddEdge(ring[i], ring[(i+1)%len(ring)])
		case 7:
			// A prefix of the ring: always a valid path, but past two
			// vertices only a cycle when it is the whole ring.
			ring = ring[:i+1]
		}

		k := 0
		next := func() (perm.Code, bool) {
			if k == len(ring) {
				return 0, false
			}
			k++
			return ring[k-1], true
		}
		want := check.RefRing(g, ring, fs, minLen)
		got := check.Ring(g, ring, fs, minLen)
		_, stream := check.RingStream(g, next, fs, minLen)
		if (want == nil) != (got == nil) || (want == nil) != (stream == nil) {
			t.Fatalf("op %d i %d j %d min %d: reference=%v, Ring=%v, RingStream=%v",
				op%8, i, j, minLen, want, got, stream)
		}
		if wantP, gotP := check.RefPath(g, ring, fs), check.Path(g, ring, fs); (wantP == nil) != (gotP == nil) {
			t.Fatalf("op %d i %d j %d: reference path=%v, Path=%v", op%8, i, j, wantP, gotP)
		}
	})
}
