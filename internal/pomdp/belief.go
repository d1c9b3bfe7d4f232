package pomdp

import (
	"fmt"
	"math"

	"bpomdp/internal/linalg"
)

// Belief is a probability distribution over the POMDP's states — a point in
// the |S|-dimensional probability simplex Π.
type Belief linalg.Vector

// UniformBelief returns the belief in which all n states are equally likely
// — the paper's starting belief {1/|S|}.
func UniformBelief(n int) Belief {
	b := make(Belief, n)
	inv := 1 / float64(n)
	for i := range b {
		b[i] = inv
	}
	return b
}

// UniformOver returns the belief uniform over the given state subset.
func UniformOver(n int, states []int) (Belief, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("pomdp: UniformOver with empty state set")
	}
	b := make(Belief, n)
	inv := 1 / float64(len(states))
	for _, s := range states {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("pomdp: state %d out of range [0,%d)", s, n)
		}
		b[s] += inv
	}
	return b, nil
}

// PointBelief returns the belief concentrated on state s.
func PointBelief(n, s int) Belief {
	b := make(Belief, n)
	b[s] = 1
	return b
}

// Clone returns a deep copy of b.
func (b Belief) Clone() Belief {
	return Belief(linalg.Vector(b).Clone())
}

// Vec views the belief as a linalg.Vector without copying.
func (b Belief) Vec() linalg.Vector { return linalg.Vector(b) }

// IsDistribution reports whether b is a valid probability distribution:
// non-negative entries summing to 1 within tolerance.
func (b Belief) IsDistribution() bool {
	var sum float64
	for _, x := range b {
		if x < -stochasticTol || math.IsNaN(x) {
			return false
		}
		sum += x
	}
	return math.Abs(sum-1) <= 1e-6
}

// Mass returns the total probability the belief assigns to the state set.
func (b Belief) Mass(states []int) float64 {
	var m float64
	for _, s := range states {
		if s >= 0 && s < len(b) {
			m += b[s]
		}
	}
	return m
}

// Entropy returns the Shannon entropy of the belief in nats: −Σ π(s)·ln π(s)
// with 0·ln 0 = 0. It is maximal (ln n) at the uniform belief and zero at a
// vertex of the simplex — the decision-trace layer records it as a measure
// of how much diagnostic ambiguity the controller decided under.
func (b Belief) Entropy() float64 {
	var h float64
	for _, p := range b {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// MostLikely returns the state with maximum probability and that probability.
func (b Belief) MostLikely() (state int, prob float64) {
	p, s := linalg.Vector(b).Max()
	return s, p
}

// Predict computes, in place into dst, the one-step-ahead state distribution
// pred(s) = Σ_s' p(s|s',a)·π(s') of Equation 3's inner sum.
func (p *POMDP) Predict(dst linalg.Vector, pi Belief, a int) linalg.Vector {
	return p.M.Trans[a].MulVecT(dst, linalg.Vector(pi))
}

// Gamma computes γ^{π,a}(o) for every observation o (Equation 3): the
// probability that observation o is generated when action a is chosen in
// belief π. The result is written into scratch and remains valid until the
// next call using the same Scratch.
func (p *POMDP) Gamma(sc *Scratch, pi Belief, a int) linalg.Vector {
	p.Predict(sc.pred, pi, a)
	// γ(o) = Σ_s pred(s)·q(o|s,a)  =  (Obs[a]ᵀ · pred)(o)
	return p.Obs[a].MulVecT(sc.gamma, sc.pred)
}

// Update performs the Bayes belief update of Equation 4, returning the next
// belief π^{π,a,o} given that action a was chosen in belief π and
// observation o was received. It returns ErrImpossibleObservation when
// γ^{π,a}(o) = 0.
func (p *POMDP) Update(sc *Scratch, pi Belief, a, o int) (Belief, error) {
	return p.UpdateInto(sc, nil, pi, a, o)
}

// UpdateInto is Update with a caller-supplied destination buffer: the next
// belief is written into dst and returned, so a filter that only needs the
// latest belief can ping-pong two buffers and perform zero allocations per
// step. dst may alias pi (the prior is consumed before dst is written); a
// nil dst allocates a fresh belief, which is exactly Update.
func (p *POMDP) UpdateInto(sc *Scratch, dst Belief, pi Belief, a, o int) (Belief, error) {
	if a < 0 || a >= p.NumActions() {
		return nil, fmt.Errorf("pomdp: action %d out of range [0,%d)", a, p.NumActions())
	}
	if o < 0 || o >= p.NumObservations() {
		return nil, fmt.Errorf("pomdp: observation %d out of range [0,%d)", o, p.NumObservations())
	}
	n := p.NumStates()
	if dst == nil {
		dst = make(Belief, n)
	} else if len(dst) != n {
		return nil, fmt.Errorf("pomdp: destination belief length %d, want %d", len(dst), n)
	}
	p.Predict(sc.pred, pi, a)
	col := sc.obsColumns(p, a)[o]
	linalg.Vector(dst).Fill(0)
	var norm float64
	for k, s := range col.states {
		v := sc.pred[s] * col.vals[k]
		dst[s] = v
		norm += v
	}
	if norm <= 0 {
		return nil, fmt.Errorf("pomdp: action %s observation %s: %w",
			p.M.ActionName(a), p.ObsName(o), ErrImpossibleObservation)
	}
	linalg.Vector(dst).Scale(1 / norm)
	return dst, nil
}

// Successor couples one observation's probability with the belief that
// results from it.
type Successor struct {
	Obs    int
	Prob   float64
	Belief Belief
}

// Successors enumerates, for action a taken in belief π, every observation
// with positive probability together with its posterior belief: the
// branching step of the Max-Avg recursion tree (Figure 1(b)), which the
// tree itself takes through the allocation-free AppendSuccessors.
func (p *POMDP) Successors(sc *Scratch, pi Belief, a int) []Successor {
	p.Predict(sc.pred, pi, a)
	n, no := p.NumStates(), p.NumObservations()

	// weights[o][s] = pred(s)·q(o|s,a); built sparsely by walking Obs rows.
	gamma := sc.gamma
	gamma.Fill(0)
	posts := make([]linalg.Vector, no)
	for s := 0; s < n; s++ {
		ps := sc.pred[s]
		if ps == 0 {
			continue
		}
		p.Obs[a].Row(s, func(o int, q float64) {
			w := ps * q
			if w == 0 {
				return
			}
			if posts[o] == nil {
				posts[o] = linalg.NewVector(n)
			}
			posts[o][s] += w
			gamma[o] += w
		})
	}
	out := make([]Successor, 0, no)
	for o := 0; o < no; o++ {
		if gamma[o] <= 0 || posts[o] == nil {
			continue
		}
		posts[o].Scale(1 / gamma[o])
		out = append(out, Successor{Obs: o, Prob: gamma[o], Belief: Belief(posts[o])})
	}
	return out
}

// ExpectedReward returns π·r(a), the immediate expected reward of choosing
// action a in belief π.
func (p *POMDP) ExpectedReward(pi Belief, a int) float64 {
	return linalg.Vector(pi).Dot(p.M.Reward[a])
}
