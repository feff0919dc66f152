package main

import (
	"errors"
	"fmt"
	"math/bits"
)

// The output check below is deliberately independent of the program
// under test: it calls neither internal/check nor core's
// self-verification, and decodes vertices itself from the documented
// perm.Code layout (position i, 0-based, in bits [4i, 4i+4), storing
// symbol-1). Those layers are what later changes optimize, so they must
// not vouch for their own output.

// fnvOffset and fnvPrime are the 64-bit FNV-1a constants; the ring hash
// folds whole vertex words, so it is order-sensitive.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// ringHash accumulates an order-sensitive hash and a count of a vertex
// sequence, used to compare a cursor's emission with its SRS1 read-back.
type ringHash struct {
	h     uint64
	count int
}

func newRingHash() ringHash { return ringHash{h: fnvOffset} }

func (r *ringHash) add(v uint64) {
	r.h = (r.h ^ v) * fnvPrime
	r.count++
}

// ringChecker verifies a vertex sequence as a healthy ring of S_n: every
// entry is a permutation of 1..n, consecutive entries (cyclically)
// differ by one star transposition (swap of position 1 with another),
// no vertex repeats, no vertex is faulty, and the length reaches a
// minimum. It streams: memory is one bit per vertex of S_n.
type ringChecker struct {
	n      int
	faulty map[uint64]bool
	fact   [17]int
	seen   []uint64 // bitset over lexicographic rank
	first  uint64
	prev   uint64
	hash   ringHash
	err    error
}

func newRingChecker(n int, faulty []uint64) *ringChecker {
	c := &ringChecker{n: n, faulty: make(map[uint64]bool, len(faulty)), hash: newRingHash()}
	c.fact[0] = 1
	for i := 1; i <= n; i++ {
		c.fact[i] = c.fact[i-1] * i
	}
	c.seen = make([]uint64, (c.fact[n]+63)/64)
	for _, v := range faulty {
		c.faulty[v] = true
	}
	return c
}

// rank returns the lexicographic rank of v, or -1 if v does not encode
// a permutation of 1..n.
func (c *ringChecker) rank(v uint64) int {
	n := c.n
	if n < 16 && v>>(4*uint(n)) != 0 {
		return -1
	}
	var used uint32
	r := 0
	for i := 0; i < n; i++ {
		s := uint32(v >> (4 * uint(i)) & 0xF)
		if int(s) >= n || used&(1<<s) != 0 {
			return -1
		}
		// Symbols smaller than s not used yet are the ones to its right
		// that are smaller: the Lehmer digit.
		smaller := bits.OnesCount32((1<<s - 1) &^ used)
		used |= 1 << s
		r += smaller * c.fact[n-1-i]
	}
	return r
}

// starAdjacent reports whether u and v differ exactly by exchanging the
// symbol in position 1 with the symbol in one other position.
func starAdjacent(n int, u, v uint64) bool {
	x := u ^ v
	if x&0xF == 0 {
		return false
	}
	i := 0
	for p := 1; p < n; p++ {
		if x>>(4*uint(p))&0xF != 0 {
			if i != 0 {
				return false
			}
			i = p
		}
	}
	if i == 0 {
		return false
	}
	return u&0xF == v>>(4*uint(i))&0xF && v&0xF == u>>(4*uint(i))&0xF
}

// add feeds the next ring vertex; the first error is kept.
func (c *ringChecker) add(v uint64) {
	if c.err != nil {
		return
	}
	pos := c.hash.count
	c.hash.add(v)
	r := c.rank(v)
	switch {
	case r < 0:
		c.err = fmt.Errorf("entry %d (%#x) is not a vertex of S_%d", pos, v, c.n)
	case c.seen[r/64]&(1<<uint(r%64)) != 0:
		c.err = fmt.Errorf("vertex %#x repeats at entry %d", v, pos)
	case c.faulty[v]:
		c.err = fmt.Errorf("faulty vertex %#x at entry %d", v, pos)
	case pos > 0 && !starAdjacent(c.n, c.prev, v):
		c.err = fmt.Errorf("entries %d and %d (%#x, %#x) are not star-adjacent", pos-1, pos, c.prev, v)
	}
	if c.err != nil {
		return
	}
	c.seen[r/64] |= 1 << uint(r%64)
	if pos == 0 {
		c.first = v
	}
	c.prev = v
}

// close checks the wrap-around edge and the minimum length.
func (c *ringChecker) close(minLen int) error {
	if c.err != nil {
		return c.err
	}
	switch {
	case c.hash.count < 3:
		return errors.New("a ring needs at least 3 vertices")
	case c.hash.count < minLen:
		return fmt.Errorf("length %d below the required %d", c.hash.count, minLen)
	case !starAdjacent(c.n, c.prev, c.first):
		return fmt.Errorf("last and first vertices (%#x, %#x) are not star-adjacent", c.prev, c.first)
	}
	return nil
}

// checkRing verifies a whole materialized ring.
func checkRing[T ~uint64](n int, ring []T, faulty []uint64, minLen int) error {
	c := newRingChecker(n, faulty)
	for _, v := range ring {
		c.add(uint64(v))
	}
	return c.close(minLen)
}

// parseVertex decodes a vertex written in the paper's notation, one
// character per symbol (1..9 then a..g), into the packed word layout.
func parseVertex(n int, s string) (uint64, error) {
	if len(s) != n {
		return 0, fmt.Errorf("vertex %q: want %d symbols", s, n)
	}
	var v uint64
	for i := 0; i < n; i++ {
		var sym uint64
		switch ch := s[i]; {
		case ch >= '1' && ch <= '9':
			sym = uint64(ch - '1')
		case ch >= 'a' && ch <= 'g':
			sym = uint64(ch-'a') + 9
		default:
			return 0, fmt.Errorf("vertex %q: bad symbol %q", s, ch)
		}
		v |= sym << (4 * uint(i))
	}
	return v, nil
}

// factorial is n! for the small n this benchmark runs.
func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}
