package bounds

import (
	"fmt"
	"math"
	"testing"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// denseScan is the reference max-of-hyperplanes scan the support scans must
// reproduce: every plane through the dense kernel, first strict maximizer.
func denseScan(s *Set, pi pomdp.Belief) (float64, int) {
	best, arg := math.Inf(-1), -1
	for i := 0; i < s.Size(); i++ {
		if v := linalg.DotUnrolled(pi, s.row(i)); v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// signedValue draws a finite value of random sign whose magnitude is tiny
// (so products with other tiny values underflow to ±0), ordinary, or large.
func signedValue(stream *rng.Stream) float64 {
	var v float64
	switch stream.IntN(3) {
	case 0:
		v = 1e-300 * (1 + stream.Float64())
	case 1:
		v = stream.Float64()
	default:
		v = 1e3 * stream.Float64()
	}
	if stream.IntN(2) == 0 {
		v = -v
	}
	return v
}

// sparseBelief draws a length-n vector with exactly k nonzero entries and
// signed zeros elsewhere. It is not normalized: the scans are linear and
// the exactness argument holds for any finite entries.
func sparseBelief(stream *rng.Stream, n, k int) pomdp.Belief {
	pi := make(pomdp.Belief, n)
	for i := range pi {
		if stream.IntN(2) == 0 {
			pi[i] = math.Copysign(0, -1)
		}
	}
	for _, i := range stream.Perm(n)[:k] {
		pi[i] = signedValue(stream)
	}
	return pi
}

// TestSupportScansMatchDense is the kernel-equality property test of the
// set's scans: on beliefs of every density (the all-zero belief, both sides
// of the n/2 dense cutoff, full), against sets with negative and mixed-sign
// planes whose products underflow to −0, ValueArg, Peek and ValueBatch all
// return the dense reference's bits and first maximizer, and bump the same
// per-plane usage counters.
func TestSupportScansMatchDense(t *testing.T) {
	stream := rng.New(77)
	for _, n := range []int{1, 2, 3, 4, 7, 15, 64, 130} {
		for trial := 0; trial < 6; trial++ {
			k := 1 + stream.IntN(20)
			planes := make([]linalg.Vector, k)
			for i := range planes {
				planes[i] = make(linalg.Vector, n)
				for s := range planes[i] {
					planes[i][s] = signedValue(stream)
					if trial%2 == 0 {
						planes[i][s] = -math.Abs(planes[i][s])
					}
				}
			}
			var pis []pomdp.Belief
			for nnz := 0; nnz <= n; nnz += 1 + n/16 {
				pis = append(pis, sparseBelief(stream, n, nnz))
			}
			pis = append(pis, sparseBelief(stream, n, n/2), sparseBelief(stream, n, n/2+1), sparseBelief(stream, n, n))

			ref, arg, bat := twinSet(t, n, planes), twinSet(t, n, planes), twinSet(t, n, planes)
			want := make([]float64, len(pis))
			for j, pi := range pis {
				v, i := denseScan(ref, pi)
				want[j] = v
				if i >= 0 {
					ref.uses[i]++
				}
				gv, gi := arg.ValueArg(pi)
				if math.Float64bits(gv) != math.Float64bits(v) || gi != i {
					t.Fatalf("n=%d trial %d belief %d: ValueArg = (%v, %d), dense (%v, %d)", n, trial, j, gv, gi, v, i)
				}
				if pv := arg.Peek(pi); math.Float64bits(pv) != math.Float64bits(v) {
					t.Fatalf("n=%d trial %d belief %d: Peek = %v, dense %v", n, trial, j, pv, v)
				}
			}
			got := bat.ValueBatch(pis, nil)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d trial %d belief %d: ValueBatch = %v, dense %v", n, trial, j, got[j], want[j])
				}
			}
			for i := range ref.uses {
				if arg.uses[i] != ref.uses[i] || bat.uses[i] != ref.uses[i] {
					t.Fatalf("n=%d trial %d plane %d: uses ValueArg %d, ValueBatch %d, dense %d",
						n, trial, i, arg.uses[i], bat.uses[i], ref.uses[i])
				}
			}
		}
	}
}

// twinSet builds a set holding exactly the given planes, bypassing Add's
// dominance pruning so every plane (ties and dominated ones included) takes
// part in the scan.
func twinSet(t *testing.T, n int, planes []linalg.Vector) *Set {
	t.Helper()
	s, err := NewSet(n, planes...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSupportScanDimensionMismatchPanics: a belief of the wrong length still
// reaches the dense kernel, which panics, on the support path too — and the
// panic releases the set's scan scratch.
func TestSupportScanDimensionMismatchPanics(t *testing.T) {
	s, err := NewSet(4, linalg.Vector{-1, -2, -3, -4})
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){
		"ValueArg":   func() { s.ValueArg(pomdp.Belief{1, 0}) },
		"Peek":       func() { s.Peek(pomdp.Belief{0, 0, 0, 0, 1}) },
		"ValueBatch": func() { s.ValueBatch([]pomdp.Belief{{1, 0, 0, 0}, {1}}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			call()
		}()
	}
	if s.localBusy.Load() {
		t.Error("a panicking scan left the set's scratch claimed")
	}
}

// TestConcurrentScansShareScratch: readers sharing one set contend for its
// own scan scratch and fall back to pooled scratch; every concurrent result
// must still be the dense reference's, and the usage counters must total
// one bump per evaluated belief. Run under -race this also pins the
// hand-off of the set's scratch between goroutines.
func TestConcurrentScansShareScratch(t *testing.T) {
	stream := rng.New(91)
	for _, n := range []int{15, 67} {
		planes := make([]linalg.Vector, 12)
		for i := range planes {
			planes[i] = make(linalg.Vector, n)
			for s := range planes[i] {
				planes[i][s] = -10 * stream.Float64()
			}
		}
		set := twinSet(t, n, planes)
		pis := mixedBeliefs(stream, 24, n)
		want := make([]float64, len(pis))
		for j, pi := range pis {
			want[j], _ = denseScan(set, pi)
		}
		const workers, rounds = 4, 50
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				out := make([]float64, len(pis))
				for r := 0; r < rounds; r++ {
					if (w+r)%2 == 0 {
						out = set.ValueBatch(pis, out)
					} else {
						for j, pi := range pis {
							out[j], _ = set.ValueArg(pi)
						}
					}
					for j := range want {
						if math.Float64bits(out[j]) != math.Float64bits(want[j]) {
							errs <- fmt.Errorf("n=%d worker %d round %d belief %d: %v, want %v", n, w, r, j, out[j], want[j])
							return
						}
					}
				}
				errs <- nil
			}(w)
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		var total uint64
		for i := range set.uses {
			total += set.uses[i]
		}
		if want := uint64(workers * rounds * len(pis)); total != want {
			t.Errorf("n=%d: %d usage bumps, want %d", n, total, want)
		}
	}
}

// TestScansAndUpdateAllocateNothing: once the set's scan scratch is sized,
// ValueArg, Peek and ValueBatch allocate nothing, on sets small and large;
// nor does UpdateAt on a capacity-capped set, where every kept plane
// replaces an evicted one.
func TestScansAndUpdateAllocateNothing(t *testing.T) {
	stream := rng.New(5)
	for _, n := range []int{15, 130} {
		planes := make([]linalg.Vector, 30)
		for i := range planes {
			planes[i] = make(linalg.Vector, n)
			for s := range planes[i] {
				planes[i][s] = -10 * stream.Float64()
			}
		}
		set := twinSet(t, n, planes)
		pis := mixedBeliefs(stream, 40, n)
		out := set.ValueBatch(pis, nil)
		allocs := testing.AllocsPerRun(50, func() {
			out = set.ValueBatch(pis, out)
			for _, pi := range pis {
				set.ValueArg(pi)
				set.Peek(pi)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: scans allocate %v times per run", n, allocs)
		}
	}

	mod, _ := withoutNotification(t)
	set, err := RASet(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(mod, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pis := mixedBeliefs(stream, 16, mod.NumStates())
	for _, pi := range pis {
		if _, err := u.UpdateAt(pi); err != nil {
			t.Fatal(err)
		}
	}
	set.SetCapacity(set.Size())
	allocs := testing.AllocsPerRun(20, func() {
		for _, pi := range pis {
			if _, err := u.UpdateAt(pi); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("UpdateAt allocates %v times per pass", allocs)
	}
}
