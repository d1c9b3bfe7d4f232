package bounds

import (
	"math"
	"testing"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// refBackupAction is the score-matrix backup the flat updater replaced,
// kept verbatim as the oracle of backupAction: a dense per-plane,
// per-observation score matrix filled by walking the observation rows in
// ascending s', then an argmax down each observation's column.
func refBackupAction(u *Updater, score *[]linalg.Vector, pi pomdp.Belief, a int) {
	p := u.p
	n, no := p.NumStates(), p.NumObservations()

	p.Predict(u.pred, pi, a)
	for len(*score) < u.set.Size() {
		*score = append(*score, linalg.NewVector(no))
	}
	sm := *score
	for i := 0; i < u.set.Size(); i++ {
		sm[i].Fill(0)
	}
	for s := 0; s < n; s++ {
		ps := u.pred[s]
		if ps == 0 {
			continue
		}
		p.Obs[a].Row(s, func(o int, q float64) {
			w := ps * q
			if w == 0 {
				return
			}
			for i := 0; i < u.set.Size(); i++ {
				sm[i][o] += w * u.set.at(i, s)
			}
		})
	}
	for o := 0; o < no; o++ {
		u.sel[o] = 0
		best := sm[0][o]
		for i := 1; i < u.set.Size(); i++ {
			if sm[i][o] > best {
				best = sm[i][o]
				u.sel[o] = i
			}
		}
	}
	u.g.Fill(0)
	for s := 0; s < n; s++ {
		p.Obs[a].Row(s, func(o int, q float64) {
			u.g[s] += q * u.set.at(u.sel[o], s)
		})
	}
	p.M.Trans[a].MulVec(u.cand, u.g)
	u.cand.Scale(u.beta)
	u.cand.AddScaled(1, p.M.Reward[a])
}

// refUpdateAt is UpdateAt over refBackupAction.
func refUpdateAt(u *Updater, score *[]linalg.Vector, pi pomdp.Belief) (UpdateResult, error) {
	before, _ := u.set.ValueArg(pi)
	bestVal, bestAction := 0.0, -1
	for a := 0; a < u.p.NumActions(); a++ {
		refBackupAction(u, score, pi, a)
		if v := linalg.Vector(pi).Dot(u.cand); bestAction < 0 || v > bestVal {
			bestVal, bestAction = v, a
			copy(u.best, u.cand)
		}
	}
	added, err := u.set.Add(u.best)
	if err != nil {
		return UpdateResult{}, err
	}
	after, _ := u.set.ValueArg(pi)
	return UpdateResult{Before: before, After: after, Added: added, Action: bestAction}, nil
}

// cloneSet copies set (planes and capacity; usage counters start at zero)
// through its JSON encoding.
func cloneSet(t testing.TB, set *Set) *Set {
	t.Helper()
	data, err := set.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c := new(Set)
	if err := c.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkUpdaterOracle drives `steps` UpdateAt calls on two copies of set —
// one through the flat updater, one through the score-matrix oracle — at
// the beliefs of simulated episodes from start: each step updates the bound
// at the current belief, then follows the backed-up action (or, half the
// time, a random one) to a sampled successor, restarting at start after 12
// steps or at a belief with no successors. After every step the results
// (Before/After bits, Added, Action), the backed-up plane and the whole set
// (slab bits and usage counters) must be identical.
func checkUpdaterOracle(t testing.TB, p *pomdp.POMDP, set *Set, start pomdp.Belief, steps int, stream *rng.Stream) {
	t.Helper()
	gotSet, wantSet := cloneSet(t, set), cloneSet(t, set)
	got, err := NewUpdater(p, gotSet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewUpdater(p, wantSet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var score []linalg.Vector
	sc := pomdp.NewScratch(p)
	pi, depth, added := start, 0, 0
	for step := 0; step < steps; step++ {
		rg, err := got.UpdateAt(pi)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := refUpdateAt(want, &score, pi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rg.Before) != math.Float64bits(rw.Before) ||
			math.Float64bits(rg.After) != math.Float64bits(rw.After) ||
			rg.Added != rw.Added || rg.Action != rw.Action {
			t.Fatalf("step %d at %v: UpdateAt %+v, oracle %+v", step, pi, rg, rw)
		}
		if rg.Added {
			added++
		}
		for s := range got.best {
			if math.Float64bits(got.best[s]) != math.Float64bits(want.best[s]) {
				t.Fatalf("step %d: backed-up plane entry %d = %v, oracle %v", step, s, got.best[s], want.best[s])
			}
		}
		if gotSet.Size() != wantSet.Size() {
			t.Fatalf("step %d: set size %d, oracle %d", step, gotSet.Size(), wantSet.Size())
		}
		for i := range gotSet.slab {
			if math.Float64bits(gotSet.slab[i]) != math.Float64bits(wantSet.slab[i]) {
				t.Fatalf("step %d: slab entry %d = %v, oracle %v", step, i, gotSet.slab[i], wantSet.slab[i])
			}
		}
		for i := range gotSet.uses {
			if gotSet.uses[i] != wantSet.uses[i] {
				t.Fatalf("step %d: plane %d uses %d, oracle %d", step, i, gotSet.uses[i], wantSet.uses[i])
			}
		}

		a := rg.Action
		if stream.IntN(2) == 0 {
			a = stream.IntN(p.NumActions())
		}
		succs := p.Successors(sc, pi, a)
		if depth++; depth == 12 || len(succs) == 0 {
			pi, depth = start, 0
			continue
		}
		u, k := stream.Float64(), 0
		for k < len(succs)-1 && u >= succs[k].Prob {
			u -= succs[k].Prob
			k++
		}
		pi = succs[k].Belief
	}
	t.Logf("%d updates agree: %d planes added, %d in the set, %d evicted", steps, added, gotSet.Size(), gotSet.Evictions())
}

// TestUpdaterMatchesScoreMatrixOracleRandomModels pins the flat updater to
// the score-matrix oracle bit for bit on generated recovery models, over
// 1,200 updates at visited beliefs, with and without a capacity (so least-
// used eviction runs on the usage counters both paths must bump alike).
func TestUpdaterMatchesScoreMatrixOracleRandomModels(t *testing.T) {
	root := rng.New(515)
	for trial := 0; trial < 12; trial++ {
		r := root.SplitN("model", trial)
		mod := randomRecoveryModel(t, r, 3+r.IntN(8), 2+r.IntN(4), 2+r.IntN(5))
		set, err := RASet(mod, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if trial%3 == 0 {
			set.SetCapacity(6)
		}
		start := pomdp.UniformBelief(mod.NumStates())
		checkUpdaterOracle(t, mod, set, start, 100, r.SplitN("episodes", 0))
	}
}
