package pomdp

import (
	"fmt"
	"math"
)

// ValueFn evaluates a (bound on a) POMDP value function at a belief.
type ValueFn interface {
	Value(pi Belief) float64
}

// ValueFunc adapts a plain function to the ValueFn interface.
type ValueFunc func(pi Belief) float64

// Value implements ValueFn.
func (f ValueFunc) Value(pi Belief) float64 { return f(pi) }

// BackupResult is the outcome of one application of the belief-MDP operator.
type BackupResult struct {
	// Value is (L_p f)(π) = max_a [π·r(a) + β Σ_o γ(o)·f(π^{π,a,o})].
	Value float64
	// Action is the maximizing action.
	Action int
	// QValues[a] is the bracketed expression for each action a.
	QValues []float64
}

// Backup applies the belief-MDP dynamic-programming operator L_p of
// Equation 2 once at belief π, using leaf to evaluate the successor beliefs.
// It defines the per-belief accumulation order of the controller's Max-Avg
// tree (whose arena-based expansion reproduces it bit for bit) and is the
// Property 1(b) check V_B⁻ ≤ L_p V_B⁻.
func Backup(p *POMDP, sc *Scratch, pi Belief, beta float64, leaf ValueFn) (BackupResult, error) {
	return BackupInto(p, sc, pi, beta, leaf, nil)
}

// BackupInto is Backup with a caller-supplied QValues buffer, grown when its
// capacity is insufficient; the returned BackupResult aliases it. Callers
// that back up in a loop (the HSVI bound refiner's exploration trials) reuse
// one buffer across calls instead of allocating a fresh Q-vector each time.
// Results are bit-identical to Backup.
func BackupInto(p *POMDP, sc *Scratch, pi Belief, beta float64, leaf ValueFn, q []float64) (BackupResult, error) {
	if len(pi) != p.NumStates() {
		return BackupResult{}, fmt.Errorf("pomdp: belief length %d, want %d", len(pi), p.NumStates())
	}
	if beta <= 0 || beta > 1 {
		return BackupResult{}, fmt.Errorf("pomdp: discount beta=%v outside (0,1]", beta)
	}
	if cap(q) < p.NumActions() {
		q = make([]float64, p.NumActions())
	}
	res := BackupResult{
		Value:   math.Inf(-1),
		Action:  -1,
		QValues: q[:p.NumActions()],
	}
	for a := 0; a < p.NumActions(); a++ {
		q := p.ExpectedReward(pi, a)
		for _, succ := range p.Successors(sc, pi, a) {
			q += beta * succ.Prob * leaf.Value(succ.Belief)
		}
		res.QValues[a] = q
		if q > res.Value {
			res.Value, res.Action = q, a
		}
	}
	return res, nil
}
