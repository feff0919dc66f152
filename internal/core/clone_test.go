package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/star"
)

// planState is everything of a plan a repair of one of its clones must
// leave alone: the ring as its cursor emits it (FNV-64a, the
// TestRingHashPins digest), the Result fields, the fault set, and the
// skeleton a later repair of the plan itself would read (segment
// offsets and every block's junctions, length and avoid sets).
type planState struct {
	hash     uint64
	res      Result
	faults   string
	skeleton string
}

func stateOf(p *Plan) planState {
	res := *p.res
	res.Ring = nil
	res.Positions = slices.Clone(res.Positions)
	sk := fmt.Sprint(p.offsets)
	for _, pb := range p.blocks {
		sk += fmt.Sprint(pb.entry, pb.exit, pb.length, pb.avoidV, pb.avoidE)
	}
	return planState{hash: ringHash(p.Ring()), res: res, faults: fmt.Sprint(p.fs.Vertices(), p.fs.Edges()), skeleton: sk}
}

// requireUnchanged fails when p no longer matches the state taken
// before one of its clones was repaired.
func requireUnchanged(t *testing.T, what string, p *Plan, before planState) {
	t.Helper()
	after := stateOf(p)
	if after.hash != before.hash {
		t.Fatalf("%s: parent ring changed (hash %#x -> %#x)", what, before.hash, after.hash)
	}
	if !reflect.DeepEqual(after.res, before.res) {
		t.Fatalf("%s: parent Result changed:\n before %+v\n after  %+v", what, before.res, after.res)
	}
	if after.faults != before.faults {
		t.Fatalf("%s: parent faults changed: %s -> %s", what, before.faults, after.faults)
	}
	if after.skeleton != before.skeleton {
		t.Fatalf("%s: parent skeleton changed", what)
	}
}

// repairClone clones parent, repairs v on the clone, and requires the
// given outcome, a fully verified clone and an untouched parent.
func repairClone(t *testing.T, parent *Plan, v perm.Code, want RepairOutcome) *Plan {
	t.Helper()
	before := stateOf(parent)
	c := parent.Clone()
	rep, err := c.Repair(v)
	if err != nil {
		t.Fatalf("repair %s on the clone: %v", v.StringN(parent.N()), err)
	}
	if rep.Outcome != want {
		t.Fatalf("repair %s on the clone: outcome %v, want %v", v.StringN(parent.N()), rep.Outcome, want)
	}
	verifyPlan(t, c)
	requireUnchanged(t, want.String(), parent, before)
	verifyPlan(t, parent)
	return c
}

// TestCloneIsolation repairs clones through every repair path — a
// splice, an avoided fault on a spliced clone, and a rebuild forced by
// a second fault in the spliced block — and requires each parent to
// keep its ring, Result and fault set.
func TestCloneIsolation(t *testing.T) {
	for n := 6; n <= 8; n++ {
		root := planOn(t, n, Config{})
		spliced := repairClone(t, root, interiorOf(t, root, 0), RepairSplice)

		var spare perm.Code
		found := false
		for _, v := range spliced.r4.At(0).Vertices(nil) {
			if !spliced.Faulty(v) && !spliced.OnRing(v) {
				spare, found = v, true
				break
			}
		}
		if !found {
			t.Fatalf("n=%d: spliced block has no healthy off-ring vertex", n)
		}
		repairClone(t, spliced, spare, RepairAvoided)
		repairClone(t, spliced, interiorOf(t, spliced, 0), RepairRebuild)
	}
}

// FuzzRepairSequence drives random vertex-fault sequences within the
// n-3 budget through copy-on-repair chains at n = 6, 7: every step
// clones the previous plan and repairs the clone. Every intermediate
// ring must pass the full check at n!-2|Fv|, every parent must stay
// byte-identical, a streaming plan repaired through the same sequence
// must emit the materialized plan's ring through its cursor, and a cold
// embedding of the final set must verify.
func FuzzRepairSequence(f *testing.F) {
	f.Add(uint8(0), uint8(3), int64(1))
	f.Add(uint8(1), uint8(4), int64(7))
	f.Add(uint8(1), uint8(2), int64(42))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, seed int64) {
		n := 6 + int(nRaw)%2
		k := int(kRaw) % (faults.MaxTolerated(n) + 1)
		rng := rand.New(rand.NewSource(seed))
		g := star.New(n)

		mp := planOn(t, n, Config{})
		sp := planOn(t, n, Config{Streaming: true})
		for step := 0; step < k; step++ {
			var v perm.Code
			for {
				v = perm.Pack(perm.Unrank(n, rng.Intn(perm.Factorial(n))))
				if !mp.Faulty(v) {
					break
				}
			}
			mBefore, sBefore := stateOf(mp), stateOf(sp)
			mc, sc := mp.Clone(), sp.Clone()
			rm, err := mc.Repair(v)
			if err != nil {
				t.Fatalf("step %d: materialized repair of %s: %v", step, v.StringN(n), err)
			}
			rs, err := sc.Repair(v)
			if err != nil {
				t.Fatalf("step %d: streaming repair of %s: %v", step, v.StringN(n), err)
			}
			if rm.Outcome != rs.Outcome {
				t.Fatalf("step %d: outcomes diverge: %v vs %v", step, rm.Outcome, rs.Outcome)
			}
			want := perm.Factorial(n) - 2*mc.fs.NumVertices()
			if err := check.Ring(g, mc.Ring(), mc.fs, want); err != nil {
				t.Fatalf("step %d (%v): repaired ring fails the full check: %v", step, rm.Outcome, err)
			}
			if got, ring := sc.Ring(), mc.Ring(); !slices.Equal(got, ring) {
				t.Fatalf("step %d (%v): streaming cursor ring differs from the materialized ring", step, rm.Outcome)
			}
			requireUnchanged(t, "materialized parent", mp, mBefore)
			requireUnchanged(t, "streaming parent", sp, sBefore)
			mp, sp = mc, sc
		}

		cold, err := mp.e.Embed(mp.fs)
		if err != nil {
			t.Fatalf("cold embed of the final set: %v", err)
		}
		verifyPlan(t, cold)
	})
}
