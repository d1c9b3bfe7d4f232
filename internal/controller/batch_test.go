package controller

import (
	"reflect"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// batchBeliefs draws m random points of the n-simplex.
func batchBeliefs(stream *rng.Stream, m, n int) []pomdp.Belief {
	pis := make([]pomdp.Belief, m)
	for i := range pis {
		pi := make(pomdp.Belief, n)
		sum := 0.0
		for s := range pi {
			pi[s] = stream.Float64()
			sum += pi[s]
		}
		for s := range pi {
			pi[s] /= sum
		}
		pis[i] = pi
	}
	return pis
}

// TestChooseBatchMatchesChoose pins the engine's bit-identity contract:
// ChooseBatch over random beliefs must reproduce per-belief Choose results
// exactly (Value, Action, and every Q-value compared with ==, via
// reflect.DeepEqual) at depth 1 and at depth 2, where the batched recursion
// shares frontiers across the batch.
func TestChooseBatchMatchesChoose(t *testing.T) {
	f := newFixture(t)
	for _, depth := range []int{1, 2} {
		engine, err := NewEngine(f.term, depth, 1, f.set)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			pis := batchBeliefs(rng.New(uint64(100*depth+trial)), 1+trial*3, f.term.NumStates())
			want := make([]pomdp.BackupResult, len(pis))
			for j, pi := range pis {
				res, err := engine.Choose(pi)
				if err != nil {
					t.Fatal(err)
				}
				want[j] = res
			}
			got := make([]pomdp.BackupResult, len(pis))
			if err := engine.ChooseBatch(pis, got); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if !reflect.DeepEqual(want[j], got[j]) {
					t.Errorf("depth %d trial %d belief %d:\nChoose:      %+v\nChooseBatch: %+v",
						depth, trial, j, want[j], got[j])
				}
			}
		}
	}
}

// TestChooseBatchReusesResultBuffers: a second call with the same out slice
// must not grow fresh QValues, and must still be exact.
func TestChooseBatchReusesResultBuffers(t *testing.T) {
	f := newFixture(t)
	engine, err := NewEngine(f.term, 1, 1, f.set)
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(5), 6, f.term.NumStates())
	out := make([]pomdp.BackupResult, len(pis))
	if err := engine.ChooseBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	firstQ := make([]*float64, len(out))
	for j := range out {
		firstQ[j] = &out[j].QValues[0]
	}
	if err := engine.ChooseBatch(pis, out); err != nil {
		t.Fatal(err)
	}
	for j := range out {
		if firstQ[j] != &out[j].QValues[0] {
			t.Errorf("belief %d: QValues reallocated on reuse", j)
		}
	}
}

func TestChooseBatchValidation(t *testing.T) {
	f := newFixture(t)
	engine, err := NewEngine(f.term, 1, 1, f.set)
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(9), 3, f.term.NumStates())
	if err := engine.ChooseBatch(pis, make([]pomdp.BackupResult, 2)); err == nil {
		t.Error("short result buffer accepted")
	}
	bad := []pomdp.Belief{{0.5, 0.5}}
	if err := engine.ChooseBatch(bad, make([]pomdp.BackupResult, 1)); err == nil {
		t.Error("wrong-length belief accepted")
	}
}

// TestDecideBatchMatchesDecide: the controller-level batch entry point must
// reproduce per-belief decisions exactly, including the a_T tie-break at the
// Sφ vertex (where the passive action's Q ties the terminate action's).
func TestDecideBatchMatchesDecide(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(11), 20, f.term.NumStates())
	// Include the Sφ vertex and a near-certain belief: the tie-break cases.
	vertex := make(pomdp.Belief, f.term.NumStates())
	vertex[0] = 1
	pis = append(pis, vertex)

	want := make([]Decision, len(pis))
	for j, pi := range pis {
		d, err := ctrl.decideAt(pi)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = d
	}
	got := make([]Decision, len(pis))
	if err := ctrl.DecideBatch(pis, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("DecideBatch diverges from Decide:\nwant: %+v\ngot:  %+v", want, got)
	}
	if !got[len(got)-1].Terminate {
		t.Error("Sφ vertex not terminated: the a_T tie-break is not exercised")
	}
}

// TestDecideBatchNotificationCertainty: in the recovery-notification regime,
// certain beliefs are answered by the short-circuit, uncertain ones by the
// batched expansion, and both must match the sequential path.
func TestDecideBatchNotificationCertainty(t *testing.T) {
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := pomdp.AbsorbNullStates(ts.Model, ts.NullStates)
	if err != nil {
		t.Fatal(err)
	}
	set, err := bounds.RASet(mod, bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewBounded(mod, set, BoundedConfig{Depth: 1, TerminateAction: -1, NullStates: ts.NullStates})
	if err != nil {
		t.Fatal(err)
	}
	n := mod.NumStates()
	certain := make(pomdp.Belief, n)
	for _, s := range ts.NullStates {
		certain[s] = 1.0 / float64(len(ts.NullStates))
	}
	pis := append(batchBeliefs(rng.New(13), 8, n), certain)

	want := make([]Decision, len(pis))
	for j, pi := range pis {
		d, err := ctrl.decideAt(pi)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = d
	}
	got := make([]Decision, len(pis))
	if err := ctrl.DecideBatch(pis, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("notification-regime DecideBatch diverges:\nwant: %+v\ngot:  %+v", want, got)
	}
	if !got[len(got)-1].Terminate {
		t.Error("certain belief not terminated by the short-circuit")
	}
}

// TestDecideBatchFallbackWithOnlineImprovement: with ImproveOnline the
// batched entry point must fall back to sequential decisions — pinned by
// running twin controllers over twin sets and checking both the decisions
// and the resulting bound sets agree plane-for-plane.
func TestDecideBatchFallbackWithOnlineImprovement(t *testing.T) {
	f := newFixture(t)
	newImproving := func() *Bounded {
		set, err := bounds.RASet(f.term, bounds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewBounded(f.term, set, BoundedConfig{
			Depth: 1, TerminateAction: f.idx.Action, NullStates: []int{0}, ImproveOnline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	seqCtrl, batCtrl := newImproving(), newImproving()
	pis := batchBeliefs(rng.New(17), 12, f.term.NumStates())

	want := make([]Decision, len(pis))
	for j, pi := range pis {
		d, err := seqCtrl.decideAt(pi)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = d
	}
	got := make([]Decision, len(pis))
	if err := batCtrl.DecideBatch(pis, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fallback decisions diverge:\nwant: %+v\ngot:  %+v", want, got)
	}
	a, b := seqCtrl.Set(), batCtrl.Set()
	if a.Size() != b.Size() {
		t.Fatalf("online-improved sets diverged: %d vs %d planes", a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		if !reflect.DeepEqual(a.Plane(i), b.Plane(i)) {
			t.Errorf("plane %d diverged after online improvement", i)
		}
	}
}

func TestDecideBatchValidation(t *testing.T) {
	f := newFixture(t)
	ctrl, err := NewBounded(f.term, f.set, BoundedConfig{Depth: 1, TerminateAction: f.idx.Action})
	if err != nil {
		t.Fatal(err)
	}
	pis := batchBeliefs(rng.New(19), 3, f.term.NumStates())
	if err := ctrl.DecideBatch(pis, make([]Decision, 2)); err == nil {
		t.Error("short decision buffer accepted")
	}
	if err := ctrl.DecideBatch([]pomdp.Belief{{1, 0}}, make([]Decision, 1)); err == nil {
		t.Error("wrong-length belief accepted")
	}
}

// TestSequentialDecideAllocatesNothing: Choose is the batched tree over a
// batch of one, so a sequential Bounded.Decide reuses the engine's level
// arenas and its own root result and allocates nothing in steady state — at
// every depth, and with online bound improvement once the updates at the
// belief stop adding planes.
func TestSequentialDecideAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	pi := batchBeliefs(rng.New(13), 1, f.term.NumStates())[0]
	for _, depth := range []int{1, 2, 3} {
		for _, improve := range []bool{false, true} {
			set, err := bounds.RASet(f.term, bounds.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctrl, err := NewBounded(f.term, set, BoundedConfig{
				Depth: depth, TerminateAction: f.idx.Action, NullStates: []int{0}, ImproveOnline: improve,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ctrl.Reset(pi); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if _, err := ctrl.Decide(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := ctrl.Decide(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("depth %d improve=%v: Decide allocates %v times per call", depth, improve, allocs)
			}
		}
	}
}

// TestChooseIntoMatchesChoose: the result-reusing entry point returns
// Choose's result exactly and keeps the caller's QValues storage.
func TestChooseIntoMatchesChoose(t *testing.T) {
	f := newFixture(t)
	engine, err := NewEngine(f.term, 2, 1, f.set)
	if err != nil {
		t.Fatal(err)
	}
	var res pomdp.BackupResult
	for j, pi := range batchBeliefs(rng.New(17), 8, f.term.NumStates()) {
		want, err := engine.Choose(pi)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.ChooseInto(pi, &res); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, res) {
			t.Errorf("belief %d: ChooseInto %+v, Choose %+v", j, res, want)
		}
		if &res.QValues[0] == &want.QValues[0] {
			t.Errorf("belief %d: Choose returned the engine's scratch", j)
		}
	}
	q := &res.QValues[0]
	if err := engine.ChooseInto(pomdp.UniformBelief(f.term.NumStates()), &res); err != nil {
		t.Fatal(err)
	}
	if &res.QValues[0] != q {
		t.Error("ChooseInto reallocated the caller's QValues")
	}
	if err := engine.ChooseInto(pomdp.Belief{1}, &res); err == nil {
		t.Error("wrong-length belief accepted")
	}
}
