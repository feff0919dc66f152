package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/perm"
)

// ringHash is the FNV-64a digest of a ring or path: every vertex code
// as 8 little-endian bytes, in order.
func ringHash(ring []perm.Code) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ring {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinEndpoints draws a healthy source and target from rng whose parities
// are equal (sameSide) or differ.
func pinEndpoints(n int, fs *faults.Set, sameSide bool, rng *rand.Rand) (perm.Code, perm.Code) {
	total := perm.Factorial(n)
	for {
		s := perm.Pack(perm.Unrank(n, rng.Intn(total)))
		t := perm.Pack(perm.Unrank(n, rng.Intn(total)))
		if s == t || fs.HasVertex(s) || fs.HasVertex(t) {
			continue
		}
		if (s.Parity(n) == t.Parity(n)) == sameSide {
			return s, t
		}
	}
}

// TestRingHashPins commits the exact output of the router for fixed
// seeded fault sets. Any change to junction selection, block routing
// or assembly that alters a single vertex of a single ring fails here,
// so refactors of those layers are held to byte-identical output.
func TestRingHashPins(t *testing.T) {
	type pin struct {
		name string
		run  func() ([]perm.Code, error)
	}
	embed := func(n int, fs *faults.Set, cfg Config) func() ([]perm.Code, error) {
		return func() ([]perm.Code, error) {
			res, err := Embed(n, fs, cfg)
			if err != nil {
				return nil, err
			}
			return res.Ring, nil
		}
	}
	path := func(n int, sameSide bool, seed int64) func() ([]perm.Code, error) {
		return func() ([]perm.Code, error) {
			rng := rand.New(rand.NewSource(seed))
			fs := faults.RandomVertices(n, n-3, rng)
			s, tt := pinEndpoints(n, fs, sameSide, rng)
			res, err := EmbedPath(n, fs, s, tt, Config{})
			if err != nil {
				return nil, err
			}
			return res.Path, nil
		}
	}

	// Generated from the router before the ring and chain junction
	// searches were merged into one backtracker.
	wants := map[string]uint64{
		"embed/uniform/n5":       0x0b9d1565575e5967,
		"embed/uniform/n6":       0x6e23adc9ff1b5e36,
		"embed/uniform/n7":       0x0adfa6deb8fb3726,
		"embed/uniform/n8":       0x14be0cc7a3b719b0,
		"embed/same-partite/n5":  0xf06f50ee14b16e01,
		"embed/same-partite/n6":  0xa29b7d5694c62307,
		"embed/same-partite/n7":  0x5dcf66a44cdb50f3,
		"embed/same-partite/n8":  0x4e3f7a112f1de983,
		"embed/opportunistic/n7": 0x64517178e6e487c9,
		"path/same-side/n6":      0x1feef6a5679ccdca,
		"path/opposite-side/n6":  0x6f62c7da0ef451c9,
		"path/same-side/n7":      0x5cc3d6adc608ef4c,
		"path/opposite-side/n7":  0x16f918ac9f23a746,
	}
	var pins []pin
	for n := 5; n <= 8; n++ {
		uni := faults.RandomVertices(n, n-3, rand.New(rand.NewSource(int64(1000+n))))
		same := faults.SamePartiteVertices(n, n-3, n%2, rand.New(rand.NewSource(int64(2000+n))))
		pins = append(pins,
			pin{name: fmt.Sprintf("embed/uniform/n%d", n), run: embed(n, uni, Config{})},
			pin{name: fmt.Sprintf("embed/same-partite/n%d", n), run: embed(n, same, Config{})})
	}
	pins = append(pins, pin{name: "embed/opportunistic/n7",
		run: embed(7, faults.RandomVertices(7, 4, rand.New(rand.NewSource(3007))), Config{Opportunistic: true})})
	for n := 6; n <= 7; n++ {
		pins = append(pins,
			pin{name: fmt.Sprintf("path/same-side/n%d", n), run: path(n, true, int64(4000+n))},
			pin{name: fmt.Sprintf("path/opposite-side/n%d", n), run: path(n, false, int64(5000+n))})
	}

	for _, p := range pins {
		ring, err := p.run()
		if err != nil {
			t.Errorf("%s: %v", p.name, err)
			continue
		}
		if got, want := ringHash(ring), wants[p.name]; got != want {
			t.Errorf("%s: ring hash %#016x, want %#016x (len %d)", p.name, got, want, len(ring))
		}
	}
}
