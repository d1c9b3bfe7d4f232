package controller

import (
	"fmt"
	"math"

	"bpomdp/internal/pomdp"
)

// Engine performs the finite-depth Max-Avg expansion of the POMDP
// dynamic-programming recursion (Figure 1(b) of the paper): future belief
// values are averaged over observations and maximized over actions, with a
// leaf evaluator (a lower bound or a heuristic) supplying the remaining
// reward at the frontier.
//
// There is one tree: ChooseBatch expands it for a whole batch of beliefs at
// once, and Choose is ChooseBatch over a batch of one. Each tree level
// shares one successor arena across the batch and, when the leaf implements
// pomdp.BatchValueFn, evaluates the frontier of each action with a single
// batched call. The per-belief floating-point accumulation order is that of
// pomdp.Backup applied recursively — reward first, then successors in
// ascending observation order, actions compared in ascending order — so a
// belief's result does not depend on the batch it was expanded in.
type Engine struct {
	p         *pomdp.POMDP
	beta      float64
	depth     int
	leaf      pomdp.ValueFn
	batchLeaf pomdp.BatchValueFn // non-nil when leaf supports batched evaluation
	sc        *pomdp.Scratch

	levels   []*batchLevel // reusable per-depth expansion state
	rootVals []float64     // root value scratch for ChooseBatch

	one    [1]pomdp.Belief       // ChooseInto's batch of one
	oneRes [1]pomdp.BackupResult // and its result

	ctr EngineCounters // monotone work counters; see Counters
}

// batchLevel is the reusable state of one tree level of a batched
// expansion: the shared successor arena and the per-belief accumulators for
// the action currently being expanded.
type batchLevel struct {
	buf    *pomdp.SuccessorBuf
	q      []float64 // per-belief Q accumulator for the current action
	counts []int     // successors appended per belief for the current action
	vals   []float64 // values of the level's frontier beliefs
}

// NewEngine builds a Max-Avg tree engine of the given depth ≥ 1 over model
// p with discount beta (use 1 for the paper's undiscounted criterion).
func NewEngine(p *pomdp.POMDP, depth int, beta float64, leaf pomdp.ValueFn) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if depth < 1 {
		return nil, fmt.Errorf("controller: tree depth %d < 1", depth)
	}
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("controller: beta %v outside (0,1]", beta)
	}
	if leaf == nil {
		return nil, fmt.Errorf("controller: nil leaf evaluator")
	}
	e := &Engine{p: p, beta: beta, depth: depth, leaf: leaf, sc: pomdp.NewScratch(p)}
	e.batchLeaf, _ = leaf.(pomdp.BatchValueFn)
	return e, nil
}

// Depth returns the expansion depth.
func (e *Engine) Depth() int { return e.depth }

// Counters snapshots the engine's monotone work counters. Stats collection
// differences two snapshots around a decision; the counters are plain fields,
// valid only from the goroutine driving the engine.
func (e *Engine) Counters() EngineCounters { return e.ctr }

// Choose expands the tree at belief π and returns the root backup: the
// maximizing action, its value, and all root Q-values (a fresh slice the
// caller owns). It is ChooseBatch over a batch of one.
func (e *Engine) Choose(pi pomdp.Belief) (pomdp.BackupResult, error) {
	var res pomdp.BackupResult
	err := e.ChooseInto(pi, &res)
	return res, err
}

// ChooseInto is Choose writing into res, reusing res.QValues when its
// capacity allows, so a caller that keeps one result across decisions
// expands the tree without allocating.
func (e *Engine) ChooseInto(pi pomdp.Belief, res *pomdp.BackupResult) error {
	e.one[0], e.oneRes[0] = pi, *res
	err := e.ChooseBatch(e.one[:], e.oneRes[:])
	*res = e.oneRes[0]
	e.one[0], e.oneRes[0] = nil, pomdp.BackupResult{}
	return err
}

// ChooseBatch expands the tree at every belief in pis and writes the root
// backup of belief j into out[j], reusing out[j].QValues when its capacity
// allows. Results are bit-identical to calling Choose on each belief in
// turn. out must be at least as long as pis.
func (e *Engine) ChooseBatch(pis []pomdp.Belief, out []pomdp.BackupResult) error {
	if len(out) < len(pis) {
		return fmt.Errorf("controller: batch result buffer length %d < %d beliefs", len(out), len(pis))
	}
	n, nA := e.p.NumStates(), e.p.NumActions()
	for j, pi := range pis {
		if len(pi) != n {
			return fmt.Errorf("pomdp: belief length %d, want %d", len(pi), n)
		}
		if cap(out[j].QValues) < nA {
			out[j].QValues = make([]float64, nA)
		}
		out[j].QValues = out[j].QValues[:nA]
	}
	if cap(e.rootVals) < len(pis) {
		e.rootVals = make([]float64, len(pis))
	}
	e.expand(0, e.depth, pis, e.rootVals[:len(pis)], out[:len(pis)])
	return nil
}

// Value evaluates the depth-limited value estimate at π without committing
// to an action.
func (e *Engine) Value(pi pomdp.Belief) (float64, error) {
	res, err := e.Choose(pi)
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// level returns the reusable expansion state for tree level lvl, growing
// the level list on first use.
func (e *Engine) level(lvl int) *batchLevel {
	for len(e.levels) <= lvl {
		e.levels = append(e.levels, &batchLevel{buf: pomdp.NewSuccessorBuf(e.p)})
	}
	return e.levels[lvl]
}

// expand is the batched Max-Avg recursion: it computes, for every belief in
// pis, the value with `remaining` further expansions into vals, and — when
// res is non-nil (the root call) — the per-action Q-values and maximizing
// action into res. For each action the whole batch's successors are
// enumerated into one arena and the next level (or the leaf bound) is
// evaluated over that frontier in a single pass; the per-belief
// floating-point accumulation order is pomdp.Backup's (reward first, then
// successors in ascending observation order, actions compared in ascending
// order), which is what makes a belief's result independent of the batch it
// is expanded in.
func (e *Engine) expand(lvl, remaining int, pis []pomdp.Belief, vals []float64, res []pomdp.BackupResult) {
	f := e.level(lvl)
	m := len(pis)
	e.ctr.Nodes += uint64(m)
	if cap(f.q) < m {
		f.q = make([]float64, m)
		f.counts = make([]int, m)
	}
	q, counts := f.q[:m], f.counts[:m]
	for j := range vals {
		vals[j] = math.Inf(-1)
	}
	if res != nil {
		for j := range res {
			res[j].Value = math.Inf(-1)
			res[j].Action = -1
		}
	}
	for a := 0; a < e.p.NumActions(); a++ {
		f.buf.Reset()
		for j, pi := range pis {
			q[j] = e.p.ExpectedReward(pi, a)
			counts[j] = e.p.AppendSuccessors(e.sc, f.buf, pi, a)
		}
		frontier := f.buf.Beliefs()
		probs := f.buf.Probs()
		if cap(f.vals) < len(frontier) {
			f.vals = make([]float64, len(frontier))
		}
		fvals := f.vals[:len(frontier)]
		if remaining == 1 {
			e.leafValues(frontier, fvals)
		} else {
			e.expand(lvl+1, remaining-1, frontier, fvals, nil)
		}
		idx := 0
		for j := range pis {
			qj := q[j]
			for c := 0; c < counts[j]; c++ {
				qj += e.beta * probs[idx] * fvals[idx]
				idx++
			}
			if res != nil {
				res[j].QValues[a] = qj
			}
			if qj > vals[j] {
				vals[j] = qj
				if res != nil {
					res[j].Action = a
				}
			}
		}
	}
	if res != nil {
		for j := range res {
			res[j].Value = vals[j]
		}
	}
}

// leafValues evaluates the leaf bound over a frontier, batched when the
// leaf supports it.
func (e *Engine) leafValues(pis []pomdp.Belief, out []float64) {
	e.ctr.LeafEvals += uint64(len(pis))
	if e.batchLeaf != nil {
		e.ctr.SlabPasses++
		e.batchLeaf.ValueBatch(pis, out)
		return
	}
	for j, pi := range pis {
		out[j] = e.leaf.Value(pi)
	}
}
