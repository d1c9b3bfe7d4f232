package bounds

import (
	"math"
	"testing"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// randomPlanes draws k random hyperplanes over n states, values in [-10, 0]
// (lower bounds on costs-to-go are non-positive in the recovery models).
func randomPlanes(stream *rng.Stream, k, n int) []linalg.Vector {
	planes := make([]linalg.Vector, k)
	for i := range planes {
		b := make(linalg.Vector, n)
		for s := range b {
			b[s] = -10 * stream.Float64()
		}
		planes[i] = b
	}
	return planes
}

// randomBeliefs draws m random points of the n-simplex.
func randomBeliefs(stream *rng.Stream, m, n int) []pomdp.Belief {
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

// mixedBeliefs draws m points of the n-simplex of every density: each is
// supported on a random number of states (1 to n), so the batch mixes
// beliefs the support scan takes with beliefs above its dense cutoff.
func mixedBeliefs(stream *rng.Stream, m, n int) []pomdp.Belief {
	pis := randomBeliefs(stream, m, n)
	for _, pi := range pis {
		for _, s := range stream.Perm(n)[:stream.IntN(n)] {
			pi[s] = 0
		}
		if !pi.Vec().Normalize() {
			pi[stream.IntN(n)] = 1
		}
	}
	return pis
}

// buildSet adds the given planes to a fresh set (capacity optional),
// interleaving value queries from the driver so usage counters shape
// eviction exactly as the caller scripts them.
func buildSet(t *testing.T, n, capacity int, planes []linalg.Vector) *Set {
	t.Helper()
	s, err := NewSet(n, planes[0])
	if err != nil {
		t.Fatal(err)
	}
	if capacity > 0 {
		s.SetCapacity(capacity)
	}
	for _, b := range planes[1:] {
		if _, err := s.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestValueBatchMatchesValueArg is the property test pinning ValueBatch's
// bit-identity contract: across random sets and random beliefs of every
// density (support scan and dense kernel alike), the batched values equal
// the per-belief ValueArg values exactly (==, not within epsilon), and both
// paths bump identical usage counters.
func TestValueBatchMatchesValueArg(t *testing.T) {
	stream := rng.New(2024)
	for trial := 0; trial < 50; trial++ {
		n := 1 + stream.IntN(9)
		k := 1 + stream.IntN(12)
		m := 1 + stream.IntN(40)
		planes := randomPlanes(stream.SplitN("planes", trial), k, n)
		pis := mixedBeliefs(stream.SplitN("beliefs", trial), m, n)

		ref := buildSet(t, n, 0, planes)
		bat := buildSet(t, n, 0, planes)

		want := make([]float64, m)
		for j, pi := range pis {
			want[j], _ = ref.ValueArg(pi)
		}
		got := bat.ValueBatch(pis, make([]float64, 0, m))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: belief %d: ValueBatch %v != ValueArg %v (n=%d k=%d)",
					trial, j, got[j], want[j], n, k)
			}
		}
		for i := range ref.uses {
			if ref.uses[i] != bat.uses[i] {
				t.Fatalf("trial %d: plane %d usage diverged: ValueArg %d, ValueBatch %d",
					trial, i, ref.uses[i], bat.uses[i])
			}
		}
	}
}

// TestValueBatchEvictionParity drives two identically-built capacity-capped
// twin sets — one through ValueArg, one through ValueBatch — with the same
// interleaving of queries and Adds, over beliefs of every density.
// Identical counter bumps must produce identical evictions, leaving
// identical slabs.
func TestValueBatchEvictionParity(t *testing.T) {
	stream := rng.New(7)
	const n, capacity = 4, 5
	planes := randomPlanes(stream.SplitN("seed", 0), 2, n)
	ref := buildSet(t, n, capacity, planes)
	bat := buildSet(t, n, capacity, planes)

	out := make([]float64, 0, 16)
	for round := 0; round < 30; round++ {
		pis := mixedBeliefs(stream.SplitN("q", round), 1+stream.IntN(8), n)
		for _, pi := range pis {
			ref.ValueArg(pi)
		}
		out = bat.ValueBatch(pis, out)

		b := randomPlanes(stream.SplitN("add", round), 1, n)[0]
		ka, err := ref.Add(b)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := bat.Add(append(linalg.Vector(nil), b...))
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb {
			t.Fatalf("round %d: Add kept=%v on reference, %v on batch twin", round, ka, kb)
		}
	}
	if ref.Size() != bat.Size() {
		t.Fatalf("sizes diverged: %d vs %d", ref.Size(), bat.Size())
	}
	for i := 0; i < ref.Size(); i++ {
		if ref.uses[i] != bat.uses[i] {
			t.Errorf("plane %d uses: %d vs %d", i, ref.uses[i], bat.uses[i])
		}
		for j := 0; j < n; j++ {
			if ref.at(i, j) != bat.at(i, j) {
				t.Errorf("plane %d entry %d: %v vs %v", i, j, ref.at(i, j), bat.at(i, j))
			}
		}
	}
}

// TestValueBatchEmptySetAndEmptyBatch covers the degenerate shapes.
func TestValueBatchEmptySetAndEmptyBatch(t *testing.T) {
	s, err := NewSet(3)
	if err != nil {
		t.Fatal(err)
	}
	got := s.ValueBatch([]pomdp.Belief{{1, 0, 0}}, nil)
	if len(got) != 1 || !math.IsInf(got[0], -1) {
		t.Errorf("empty set ValueBatch = %v, want [-Inf]", got)
	}
	if got := s.ValueBatch(nil, nil); len(got) != 0 {
		t.Errorf("empty batch returned %v", got)
	}
}

// TestValueBatchGrowsOutput: an undersized out slice is replaced, a
// sufficient one is reused in place.
func TestValueBatchGrowsOutput(t *testing.T) {
	s, err := NewSet(2, linalg.Vector{-1, -2})
	if err != nil {
		t.Fatal(err)
	}
	pis := []pomdp.Belief{{1, 0}, {0, 1}}
	small := make([]float64, 1)
	got := s.ValueBatch(pis, small)
	if len(got) != 2 || got[0] != -1 || got[1] != -2 {
		t.Errorf("grown ValueBatch = %v, want [-1 -2]", got)
	}
	big := make([]float64, 8)
	got = s.ValueBatch(pis, big)
	if len(got) != 2 || &got[0] != &big[0] {
		t.Error("sufficient out slice was not reused in place")
	}
}

// TestSlabLayoutSurvivesMutation: row views and JSON round-trips must agree
// after interleaved Add-driven compactions and evictions.
func TestSlabLayoutSurvivesMutation(t *testing.T) {
	stream := rng.New(99)
	s := buildSet(t, 3, 4, randomPlanes(stream, 2, 3))
	for i := 0; i < 20; i++ {
		if _, err := s.Add(randomPlanes(stream.SplitN("p", i), 1, 3)[0]); err != nil {
			t.Fatal(err)
		}
		for _, pi := range randomBeliefs(stream.SplitN("b", i), 3, 3) {
			s.Value(pi)
		}
	}
	if len(s.slab) != s.Size()*s.n {
		t.Fatalf("slab length %d inconsistent with %d planes of %d states", len(s.slab), s.Size(), s.n)
	}
	if s.Size() > 4 {
		t.Fatalf("capacity 4 exceeded: %d planes", s.Size())
	}
	for i := 0; i < s.Size(); i++ {
		row := s.row(i)
		for j := range row {
			if row[j] != s.at(i, j) {
				t.Fatalf("row/at disagree at (%d,%d)", i, j)
			}
		}
	}
}
