// Package bounds implements value-function bounds for POMDPs: the paper's
// RA-Bound (Section 3) with its convergence machinery for undiscounted
// recovery models, the two comparison lower bounds from the literature
// (BI-POMDP and the blind-policy method) whose divergence on recovery models
// the paper demonstrates, the incremental linear-function improvement scheme
// of Section 4.1, and — as the extension the paper's conclusion calls for —
// a QMDP-style upper bound usable for gap diagnostics and branch-and-bound.
//
// A lower bound is represented as a set of hyperplanes over the belief
// simplex: B = {b₁, …, b_k} with V_B⁻(π) = max_b π·b (Equation 6). The
// RA-Bound alone is the single hyperplane [V_m⁻(s)]_s.
//
// The dual upper bound is a sawtooth point set (UpperBound): a per-state
// corner vector (QMDP or the trivial zero bound of Condition 2) plus belief
// points with known upper-bound values, interpolated by convexity. Refiner
// pairs the two and tightens both HSVI-style — gap-weighted forward
// exploration from a root belief, dual backups at every visited point —
// until the root gap closes. Both structures tighten monotonically: Set.Add
// only raises the lower envelope and UpperBound.AddPoint only lowers the
// sawtooth, so the gap is pointwise nonincreasing over a refinement run,
// and a pair that ever crosses is refused with ErrBoundCrossing. The
// refined Set stays a plain Set, consumed unchanged by the Max-Avg tree and
// the FSC compiler.
package bounds

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
)

// ErrUnbounded is wrapped by bound computations whose value diverges to -∞
// on the given model (the failure mode of BI-POMDP and blind-policy bounds
// on undiscounted recovery models).
var ErrUnbounded = errors.New("bounds: bound diverges on this model")

// ErrEmptySet is returned when evaluating an empty hyperplane set.
var ErrEmptySet = errors.New("bounds: empty hyperplane set")

// Set is a collection of lower-bound hyperplanes over the belief simplex,
// with the max-of-hyperplanes evaluation of Equation 6, dominated-plane
// pruning, and an optional capacity with least-used eviction (the finite-
// storage strategy sketched in Section 4.3 of the paper).
//
// The planes are stored structure-of-arrays style in one contiguous
// []float64 slab (plane i occupies slab[i·n : (i+1)·n]), so the
// max-of-hyperplanes scan streams a single allocation linearly and
// ValueBatch can amortize one pass over the slab across many beliefs. The
// scans visit only a belief's nonzero entries (linalg.DotSupport) unless
// more than half of them are nonzero; both kernels return the same bits on
// the set's planes, which are finite by construction.
//
// A Set is not safe for concurrent mutation (Add vs anything else), but
// Value/ValueArg/ValueBatch are safe to call from several goroutines at once
// on a set nobody is mutating — the usage counters behind least-used
// eviction are updated atomically — so read-only controllers may share one
// set (e.g. a pool of campaign workers evaluating the same bootstrapped
// bound).
type Set struct {
	slab      []float64   // plane i is slab[i*n : (i+1)*n]
	uses      []uint64    // accessed atomically in ValueArg/ValueBatch; plainly under mutation
	maxLen    int         // 0 = unlimited
	n         int         // state count
	local     scanScratch // scan scratch of the uncontended caller, owned while localBusy
	localBusy atomic.Bool
	scratch   sync.Pool // *scanScratch for concurrent callers
	evictions uint64    // capacity evictions performed; read atomically by Evictions
}

// NewSet creates a hyperplane set over an n-state belief space, seeded with
// the given base hyperplanes (each of length n).
func NewSet(n int, base ...linalg.Vector) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bounds: non-positive state count %d", n)
	}
	s := &Set{n: n}
	for i, b := range base {
		if len(b) != n {
			return nil, fmt.Errorf("bounds: base hyperplane %d has length %d, want %d", i, len(b), n)
		}
		if !b.IsFinite() {
			return nil, fmt.Errorf("bounds: base hyperplane %d is not finite", i)
		}
		s.slab = append(s.slab, b...)
		s.uses = append(s.uses, 0)
	}
	return s, nil
}

// SetCapacity bounds the number of stored hyperplanes; when an Add would
// exceed it, the least-used plane (other than the first, which is kept as
// the always-valid base) is evicted. Zero removes the limit.
func (s *Set) SetCapacity(maxLen int) { s.maxLen = maxLen }

// Size returns the number of stored hyperplanes.
func (s *Set) Size() int { return len(s.uses) }

// NumStates returns the dimension of the underlying belief space.
func (s *Set) NumStates() int { return s.n }

// row returns plane i as a view into the slab (capped so appends cannot
// clobber the neighbouring plane).
func (s *Set) row(i int) []float64 {
	return s.slab[i*s.n : (i+1)*s.n : (i+1)*s.n]
}

// at returns entry j of plane i.
func (s *Set) at(i, j int) float64 { return s.slab[i*s.n+j] }

// Value evaluates V_B⁻(π) = max_b π·b and records a use of the maximizing
// plane. It panics on dimension mismatch (beliefs are validated upstream)
// and returns -Inf for an empty set.
func (s *Set) Value(pi pomdp.Belief) float64 {
	v, _ := s.ValueArg(pi)
	return v
}

// ValueArg is Value plus the index of the maximizing hyperplane (-1 when
// the set is empty).
func (s *Set) ValueArg(pi pomdp.Belief) (float64, int) {
	best, arg := s.scan(pi)
	if arg >= 0 {
		atomic.AddUint64(&s.uses[arg], 1)
	}
	return best, arg
}

// Peek evaluates V_B⁻(π) without recording a use of the maximizing plane.
// Observability callers (decision stats, bound-gap traces) use it so that
// inspecting the bound cannot perturb least-used eviction and thereby change
// which planes a capacity-limited set keeps.
func (s *Set) Peek(pi pomdp.Belief) float64 {
	best, _ := s.scan(pi)
	return best
}

// scan returns max_b π·b and the first maximizing plane (-1 when the set is
// empty), computing π's support once and scanning every plane over it.
func (s *Set) scan(pi pomdp.Belief) (float64, int) {
	sc := s.getScratch(0)
	defer s.putScratch(sc) // also on the dimension-mismatch panic
	sup, sparse := s.support(sc.sup[:0], pi)
	best, arg := math.Inf(-1), -1
	for i := 0; i < len(s.uses); i++ {
		var v float64
		if sparse {
			v = linalg.DotSupport(pi, s.row(i), sup)
		} else {
			v = linalg.DotUnrolled(pi, s.row(i))
		}
		if v > best {
			best, arg = v, i
		}
	}
	sc.sup = sup
	return best, arg
}

// support appends the indices of π's nonzero entries to dst and reports
// whether π is sparse enough for the support scan: at most half of its n
// entries nonzero. Denser beliefs (and beliefs of the wrong length, so that
// the dense kernel panics on them) report false, stopping early, with dst
// returned at its original length. The rule is fixed: linalg.DotSupport is
// bit-identical to the dense kernel on the set's finite planes, so the
// cutoff only decides which of two equal computations is cheaper.
func (s *Set) support(dst []int, pi pomdp.Belief) ([]int, bool) {
	if len(pi) != s.n {
		return dst, false
	}
	start, limit := len(dst), len(dst)+s.n/2
	for i, x := range pi {
		if x != 0 {
			if len(dst) == limit {
				return dst[:start], false
			}
			dst = append(dst, i)
		}
	}
	return dst, true
}

// ValueBatch evaluates V_B⁻ at every belief in pis with one linear pass over
// the plane slab (plane-outer, belief-inner), writing the values into out
// (grown if its capacity is insufficient) and returning it. Each belief's
// support is computed once up front and every plane is scanned over it (the
// dense kernel for beliefs above the cutoff), exactly as ValueArg does, so
// each result is bit-identical to Value on the same belief; and the usage
// counter of each belief's maximizing plane is bumped exactly as ValueArg
// would, so eviction behaviour is unchanged. With a preallocated out the
// call performs no allocations in steady state.
func (s *Set) ValueBatch(pis []pomdp.Belief, out []float64) []float64 {
	m := len(pis)
	if cap(out) < m {
		out = make([]float64, m)
	}
	out = out[:m]
	sc := s.getScratch(m)
	defer s.putScratch(sc)
	args := sc.args
	sup := sc.sup[:0]
	for j, pi := range pis {
		out[j] = math.Inf(-1)
		args[j] = -1
		sup, sc.sparse[j] = s.support(sup, pi)
		sc.ends[j] = len(sup)
	}
	for i := 0; i < len(s.uses); i++ {
		plane := s.row(i)
		lo := 0
		for j, pi := range pis {
			hi := sc.ends[j]
			var v float64
			if sc.sparse[j] {
				v = linalg.DotSupport(pi, plane, sup[lo:hi])
			} else {
				v = linalg.DotUnrolled(pi, plane)
			}
			lo = hi
			if v > out[j] {
				out[j], args[j] = v, i
			}
		}
	}
	for _, a := range args {
		if a >= 0 {
			atomic.AddUint64(&s.uses[a], 1)
		}
	}
	sc.sup = sup
	return out
}

// scanScratch is the per-call scratch of the plane scans: the concatenated
// supports of the scanned beliefs (belief j's support ends at ends[j];
// sparse[j] is false when it takes the dense kernel) and ValueBatch's
// argmax indices.
type scanScratch struct {
	args   []int
	sup    []int
	ends   []int
	sparse []bool
}

// getScratch returns scan scratch sized for m beliefs. The set's own
// scratch serves whichever caller
// claims it first; a concurrent caller takes pooled scratch instead. (A
// sync.Pool alone would allocate whenever the goroutine migrated between
// Ps, since an item put on one P's private slot cannot be taken from
// another.)
func (s *Set) getScratch(m int) *scanScratch {
	var sc *scanScratch
	if s.localBusy.CompareAndSwap(false, true) {
		sc = &s.local
	} else if sc, _ = s.scratch.Get().(*scanScratch); sc == nil {
		sc = new(scanScratch)
	}
	if cap(sc.args) < m {
		sc.args = make([]int, m)
		sc.ends = make([]int, m)
		sc.sparse = make([]bool, m)
	}
	sc.args, sc.ends, sc.sparse = sc.args[:m], sc.ends[:m], sc.sparse[:m]
	return sc
}

// putScratch releases scratch taken by getScratch.
func (s *Set) putScratch(sc *scanScratch) {
	if sc == &s.local {
		s.localBusy.Store(false)
		return
	}
	s.scratch.Put(sc)
}

// Evictions returns the number of capacity evictions performed so far. Safe
// to call concurrently with readers; like Size it may race with an Add.
func (s *Set) Evictions() uint64 { return atomic.LoadUint64(&s.evictions) }

// Plane returns (a copy of) hyperplane i.
func (s *Set) Plane(i int) linalg.Vector {
	return append(linalg.Vector(nil), s.row(i)...)
}

// Add inserts a new hyperplane unless it is pointwise dominated by an
// existing one (in which case it can never be the max anywhere on the
// simplex and is discarded, per Section 4.1: "any additional bound
// hyperplanes that are not better in at least some regions of the
// probability simplex can be discarded"). It returns whether the plane was
// kept. Planes that dominate existing ones cause the dominated ones to be
// pruned. If a capacity is set, the least-used non-base plane is evicted to
// make room.
func (s *Set) Add(b linalg.Vector) (bool, error) {
	if len(b) != s.n {
		return false, fmt.Errorf("bounds: hyperplane length %d, want %d", len(b), s.n)
	}
	if !b.IsFinite() {
		return false, fmt.Errorf("bounds: non-finite hyperplane")
	}
	const tol = 1e-12
	for i := 0; i < s.Size(); i++ {
		if dominates(s.row(i), b, tol) {
			return false, nil
		}
	}
	// Prune planes the newcomer dominates (never the base plane at index 0,
	// which callers rely on for the Property 1(b) guarantee).
	w := 1
	for i := 1; i < s.Size(); i++ {
		if dominates(b, s.row(i), tol) {
			continue
		}
		if w != i {
			copy(s.slab[w*s.n:(w+1)*s.n], s.slab[i*s.n:(i+1)*s.n])
			s.uses[w] = s.uses[i]
		}
		w++
	}
	s.slab = s.slab[:w*s.n]
	s.uses = s.uses[:w]

	if s.maxLen > 0 && s.Size() >= s.maxLen {
		s.evictLeastUsed()
	}
	s.slab = append(s.slab, b...)
	s.uses = append(s.uses, 0)
	return true, nil
}

// dominates reports a ≥ b pointwise (within tol).
func dominates(a, b []float64, tol float64) bool {
	for i := range a {
		if a[i] < b[i]-tol {
			return false
		}
	}
	return true
}

// removeAt deletes plane i from the slab and the usage counters.
func (s *Set) removeAt(i int) {
	copy(s.slab[i*s.n:], s.slab[(i+1)*s.n:])
	s.slab = s.slab[:len(s.slab)-s.n]
	s.uses = append(s.uses[:i], s.uses[i+1:]...)
}

func (s *Set) evictLeastUsed() {
	if s.Size() <= 1 {
		return
	}
	victim := 1
	for i := 2; i < s.Size(); i++ {
		if s.uses[i] < s.uses[victim] {
			victim = i
		}
	}
	s.removeAt(victim)
	atomic.AddUint64(&s.evictions, 1)
}

// CompactLP removes every hyperplane that is nowhere strictly above the
// maximum of the others — the exact version of Section 4.1's "not better in
// at least some regions of the probability simplex can be discarded" test,
// implemented with the usefulness LP. The base plane (index 0) is always
// kept so the Property 1(b) guarantee anchored to it survives. V_B⁻ is
// unchanged at every belief. It returns the number of planes removed.
func (s *Set) CompactLP() (int, error) {
	removed := 0
	for i := 1; i < s.Size(); {
		others := make([]linalg.Vector, 0, s.Size()-1)
		for k := 0; k < s.Size(); k++ {
			if k != i {
				others = append(others, linalg.Vector(s.row(k)))
			}
		}
		useful, err := linalg.PlaneUseful(linalg.Vector(s.row(i)), others, 1e-9)
		if err != nil {
			return removed, fmt.Errorf("bounds: compact: %w", err)
		}
		if useful {
			i++
			continue
		}
		s.removeAt(i)
		removed++
	}
	return removed, nil
}

// AsValueFn adapts the set to the pomdp.ValueFn interface. Note that a *Set
// already implements pomdp.ValueFn (and pomdp.BatchValueFn) directly; this
// wrapper survives for callers that want a plain ValueFunc without the
// batched fast path.
func (s *Set) AsValueFn() pomdp.ValueFn {
	return pomdp.ValueFunc(func(pi pomdp.Belief) float64 { return s.Value(pi) })
}

// The set is usable directly as a (batched) leaf evaluator.
var (
	_ pomdp.ValueFn      = (*Set)(nil)
	_ pomdp.BatchValueFn = (*Set)(nil)
)
