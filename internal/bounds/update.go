package bounds

import (
	"fmt"

	"bpomdp/internal/linalg"
	"bpomdp/internal/pomdp"
)

// Updater implements the incremental linear-function bound-improvement
// method of Hauskrecht (2000) as used in Section 4.1 (Equation 7): given a
// set B of lower-bound hyperplanes and a belief π, it constructs a new
// hyperplane
//
//	b_a(s) = r(s,a) + β Σ_o Σ_s' p(s',o|s,a) · b^{π,a,o}(s')
//	b      = argmax_{b_a} Σ_s b_a(s)·π(s)
//
// where b^{π,a,o} is the existing hyperplane that is maximal for the
// (unnormalized) successor belief of (π, a, o). Every such plane is itself a
// valid lower bound, so adding it to B preserves validity while (weakly)
// improving the bound at π.
type Updater struct {
	p    *pomdp.POMDP
	beta float64
	set  *Set

	pred   linalg.Vector // Σ_s p(s'|s,a)·π(s)
	g      linalg.Vector // Σ_o q(o|s',a)·b_{a,o}(s')
	cand   linalg.Vector // candidate plane b_a
	best   linalg.Vector // best candidate so far
	sel    []int         // chosen plane index per observation
	cursor []int         // per-observation term count, then write cursor
	terms  []term        // nonzero weights of the current action, grouped by observation
	groups []obsGroup    // observations reachable under the current action, ascending
}

// term is one nonzero weight w = pred(s')·q(o|s',a) of an observation's
// score Σ_s' w·plane(s').
type term struct {
	s int
	w float64
}

// obsGroup is one reachable observation of the current action: its terms
// (ascending s', ending at terms[end]) and the first plane maximizing its
// score so far.
type obsGroup struct {
	o, end int
	top    float64
	sel    int
}

// NewUpdater creates an Updater that improves set in place on model p.
func NewUpdater(p *pomdp.POMDP, set *Set, opts Options) (*Updater, error) {
	o := opts.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if set.NumStates() != p.NumStates() {
		return nil, fmt.Errorf("bounds: set over %d states, model has %d", set.NumStates(), p.NumStates())
	}
	if set.Size() == 0 {
		return nil, ErrEmptySet
	}
	if o.Beta <= 0 || o.Beta > 1 {
		return nil, fmt.Errorf("bounds: beta %v outside (0,1]", o.Beta)
	}
	n, no := p.NumStates(), p.NumObservations()
	return &Updater{
		p:      p,
		beta:   o.Beta,
		set:    set,
		pred:   linalg.NewVector(n),
		g:      linalg.NewVector(n),
		cand:   linalg.NewVector(n),
		best:   linalg.NewVector(n),
		sel:    make([]int, no),
		cursor: make([]int, no),
	}, nil
}

// Set returns the hyperplane set being improved.
func (u *Updater) Set() *Set { return u.set }

// UpdateResult describes one incremental update step.
type UpdateResult struct {
	// Before and After are V_B⁻(π) before and after the update.
	Before, After float64
	// Added reports whether the new hyperplane was kept (it is discarded
	// when pointwise dominated by an existing plane).
	Added bool
	// Action is the maximizing action of the backed-up plane.
	Action int
}

// Improvement returns After − Before, the bound tightening achieved at π.
func (r UpdateResult) Improvement() float64 { return r.After - r.Before }

// UpdateAt performs one incremental bound update at belief π, adding the
// backed-up hyperplane to the set if it is not dominated, and returns the
// before/after bound values at π.
func (u *Updater) UpdateAt(pi pomdp.Belief) (UpdateResult, error) {
	p := u.p
	n := p.NumStates()
	if len(pi) != n {
		return UpdateResult{}, fmt.Errorf("bounds: belief length %d, want %d", len(pi), n)
	}
	before, _ := u.set.ValueArg(pi)

	bestVal := 0.0
	bestAction := -1
	for a := 0; a < p.NumActions(); a++ {
		u.backupAction(pi, a)
		if v := linalg.Vector(pi).Dot(u.cand); bestAction < 0 || v > bestVal {
			bestVal = v
			bestAction = a
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

// backupAction computes the backed-up hyperplane for action a into u.cand.
//
// The plane chosen for observation o is the first strict maximizer, in plane
// order, of score_i(o) = Σ_s' pred(s')·q(o|s',a)·plane_i(s'). The nonzero
// weights are collected once per action and grouped by observation in
// ascending s' (a stable counting sort over the CSR rows); each plane's
// slab row is then scanned once per reachable observation, so every score
// still sums its terms in ascending s' from +0. Unreachable observations
// score zero under every plane and keep the base plane (index 0): the
// choice does not affect the value at π, and any plane in B keeps the
// result a valid bound.
func (u *Updater) backupAction(pi pomdp.Belief, a int) {
	p := u.p
	n := p.NumStates()
	obs := p.Obs[a]

	// pred(s') = Σ_s p(s'|s,a)·π(s).
	p.Predict(u.pred, pi, a)
	cursor := u.cursor
	for o := range cursor {
		cursor[o] = 0
	}
	for s := 0; s < n; s++ {
		if ps := u.pred[s]; ps != 0 {
			os, qs := obs.RowSlice(s)
			for k, o := range os {
				if ps*qs[k] != 0 {
					cursor[o]++
				}
			}
		}
	}
	u.groups = u.groups[:0]
	end := 0
	for o, c := range cursor {
		if c > 0 {
			cursor[o] = end
			end += c
			u.groups = append(u.groups, obsGroup{o: o, end: end})
		}
	}
	if cap(u.terms) < end {
		u.terms = make([]term, end)
	}
	terms := u.terms[:end]
	for s := 0; s < n; s++ {
		if ps := u.pred[s]; ps != 0 {
			os, qs := obs.RowSlice(s)
			for k, o := range os {
				if w := ps * qs[k]; w != 0 {
					terms[cursor[o]] = term{s: s, w: w}
					cursor[o]++
				}
			}
		}
	}
	// b^{π,a,o} = argmax_i score_i(o).
	for i := 0; i < u.set.Size(); i++ {
		plane := u.set.row(i)
		lo := 0
		for g := range u.groups {
			grp := &u.groups[g]
			v := 0.0
			for _, t := range terms[lo:grp.end] {
				v += t.w * plane[t.s]
			}
			lo = grp.end
			if i == 0 || v > grp.top {
				grp.top, grp.sel = v, i
			}
		}
	}
	for o := range u.sel {
		u.sel[o] = 0
	}
	for _, grp := range u.groups {
		u.sel[grp.o] = grp.sel
	}
	// g(s') = Σ_o q(o|s',a)·b_{a,o}(s').
	for s := 0; s < n; s++ {
		os, qs := obs.RowSlice(s)
		g := 0.0
		for k, o := range os {
			g += qs[k] * u.set.at(u.sel[o], s)
		}
		u.g[s] = g
	}
	// b_a = r(a) + β·P(a)·g.
	p.M.Trans[a].MulVec(u.cand, u.g)
	u.cand.Scale(u.beta)
	u.cand.AddScaled(1, p.M.Reward[a])
}
