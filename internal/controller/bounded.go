package controller

import (
	"fmt"

	"bpomdp/internal/bounds"
	"bpomdp/internal/pomdp"
)

// BoundedConfig configures a bounded controller.
type BoundedConfig struct {
	// Depth is the Max-Avg tree expansion depth (≥ 1). The paper's
	// evaluation uses depth 1 for the bounded controller.
	Depth int
	// Beta is the discount factor; zero means 1 (undiscounted).
	Beta float64
	// TerminateAction is the index of a_T in the model, or -1 when the
	// system has recovery notification and the model has no terminate
	// action.
	TerminateAction int
	// NullStates is Sφ. With recovery notification (TerminateAction < 0)
	// the controller terminates once the belief is certain the system is in
	// Sφ; it is also used for diagnostics.
	NullStates []int
	// ImproveOnline, when true, runs one incremental bound update at every
	// belief the controller visits during real recovery ("those
	// belief-states that are naturally generated during the course of
	// system recovery", §4.1).
	ImproveOnline bool
	// CheckConsistency, when true, verifies Property 1(b) (V_B ≤ L_p V_B)
	// at every visited belief and fails loudly on violation. Intended for
	// tests and audits; adds one extra backup per step.
	CheckConsistency bool
	// CollectStats, when true, makes the controller record DecisionStats for
	// every decision (exposed through the StatsSource / BatchStatsSource
	// interfaces). Off by default: the stats path costs one extra bound
	// evaluation (Set.Peek) plus an entropy pass per decision, and the
	// controller guarantees the decision path is unchanged when it is off.
	CollectStats bool
}

// Bounded is the paper's bounded recovery controller: a finite-depth
// Max-Avg expansion with a lower-bound hyperplane set at the leaves. With
// Property 1's preconditions (no free actions; V_B ≤ L_p V_B) it terminates
// with probability 1 and its expected cost is bounded by the bound itself.
type Bounded struct {
	beliefTracker
	cfg     BoundedConfig
	engine  *Engine
	set     *bounds.Set
	updater *bounds.Updater
	nullSet []int

	res pomdp.BackupResult // root backup of the last sequential decision

	// DecideBatch scratch, reused across calls.
	batchIdx []int
	batchPis []pomdp.Belief
	batchRes []pomdp.BackupResult

	// Stats scratch, populated only with cfg.CollectStats.
	lastStats   DecisionStats
	statsQ      []float64       // QValues buffer behind lastStats
	batchStats  []DecisionStats // per-belief stats of the last DecideBatch
	batchStatsQ []float64       // flat QValues slab behind batchStats
}

var (
	_ Controller       = (*Bounded)(nil)
	_ BatchDecider     = (*Bounded)(nil)
	_ TierSource       = (*Bounded)(nil)
	_ BatchStatsSource = (*Bounded)(nil)
)

// NewBounded builds a bounded controller over the (already transformed)
// model p using the hyperplane set as the leaf bound. The set is used (and,
// with ImproveOnline, refined) in place — share it with a Bootstrapper to
// reuse bootstrap improvements.
func NewBounded(p *pomdp.POMDP, set *bounds.Set, cfg BoundedConfig) (*Bounded, error) {
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	if cfg.Beta == 0 {
		cfg.Beta = 1
	}
	if set == nil || set.Size() == 0 {
		return nil, fmt.Errorf("controller: bounded controller needs a non-empty bound set (compute the RA-Bound first)")
	}
	if set.NumStates() != p.NumStates() {
		return nil, fmt.Errorf("controller: bound set over %d states, model has %d", set.NumStates(), p.NumStates())
	}
	if cfg.TerminateAction >= p.NumActions() {
		return nil, fmt.Errorf("controller: terminate action %d out of range", cfg.TerminateAction)
	}
	if cfg.TerminateAction < 0 && len(cfg.NullStates) == 0 {
		return nil, fmt.Errorf("controller: recovery-notification regime needs NullStates to detect completion")
	}
	// The set is passed directly (it implements pomdp.BatchValueFn), so the
	// engine's batched expansion can evaluate whole leaf frontiers with one
	// pass over the hyperplane slab.
	engine, err := NewEngine(p, cfg.Depth, cfg.Beta, set)
	if err != nil {
		return nil, err
	}
	b := &Bounded{
		beliefTracker: newBeliefTracker(p),
		cfg:           cfg,
		engine:        engine,
		set:           set,
		nullSet:       pomdp.SortedStates(cfg.NullStates),
	}
	if cfg.ImproveOnline {
		u, err := bounds.NewUpdater(p, set, bounds.Options{Beta: cfg.Beta})
		if err != nil {
			return nil, err
		}
		b.updater = u
	}
	return b, nil
}

// Name implements Controller.
func (b *Bounded) Name() string {
	return fmt.Sprintf("bounded(depth=%d)", b.cfg.Depth)
}

// Set returns the hyperplane set used at the leaves.
func (b *Bounded) Set() *bounds.Set { return b.set }

// Model returns the (transformed) POMDP the controller decides over. The
// campaign engine's batched stepping mode uses it to track per-episode
// beliefs over the same state space the decider expects — which is larger
// than the simulated base model whenever the Section 3.1 transforms appended
// termination states.
func (b *Bounded) Model() *pomdp.POMDP { return b.p }

// Decide implements Controller. It expands the Max-Avg tree at the current
// belief and returns the maximizing action; choosing a_T (or, with recovery
// notification, certainty of Sφ) terminates the episode.
func (b *Bounded) Decide() (Decision, error) {
	if b.belief == nil {
		return Decision{}, ErrNotReset
	}
	return b.decideAt(b.belief)
}

// certainty is the belief mass at which the recovery-notification regime
// considers the system certainly recovered.
const certainty = 1 - 1e-9

// decideAt is Decide for an explicit belief (which need not be the tracked
// one — DecideBatch and the batch server endpoint decide for foreign
// beliefs).
func (b *Bounded) decideAt(pi pomdp.Belief) (Decision, error) {
	if b.cfg.CheckConsistency {
		rep, err := bounds.CheckConsistency(b.p, b.sc, b.set, pi, bounds.Options{Beta: b.cfg.Beta})
		if err != nil {
			return Decision{}, err
		}
		if !rep.OK {
			return Decision{}, fmt.Errorf("controller: Property 1(b) violated at belief %v: V_B=%v > L_pV_B=%v",
				pi, rep.Bound, rep.Backup)
		}
	}
	if b.updater != nil {
		if _, err := b.updater.UpdateAt(pi); err != nil {
			return Decision{}, fmt.Errorf("controller: online bound update: %w", err)
		}
	}
	// Recovery-notification regime: stop as soon as the belief certifies Sφ.
	if b.cfg.TerminateAction < 0 && pi.Mass(b.nullSet) >= certainty {
		d := Decision{Terminate: true, Value: 0}
		if b.cfg.CollectStats {
			b.lastStats = b.statsFor(pi, d, nil)
		}
		return d, nil
	}
	var before EngineCounters
	if b.cfg.CollectStats {
		before = b.engine.Counters()
	}
	if err := b.engine.ChooseInto(pi, &b.res); err != nil {
		return Decision{}, err
	}
	d := b.toDecision(&b.res)
	if b.cfg.CollectStats {
		after := b.engine.Counters()
		b.statsQ = append(b.statsQ[:0], b.res.QValues...)
		st := b.statsFor(pi, d, b.statsQ)
		st.TreeNodes = after.Nodes - before.Nodes
		st.LeafEvals = after.LeafEvals - before.LeafEvals
		st.SlabPasses = after.SlabPasses - before.SlabPasses
		b.lastStats = st
	}
	return d, nil
}

// statsFor builds the engine-counter-independent part of a DecisionStats:
// the bound explanation (LeafBound via Set.Peek so reading it cannot perturb
// least-used eviction, and the Property 1(b) slack BoundGap), the belief
// entropy, and the bound-set snapshot. q, when non-nil, is aliased directly.
func (b *Bounded) statsFor(pi pomdp.Belief, d Decision, q []float64) DecisionStats {
	leaf := b.set.Peek(pi)
	st := DecisionStats{
		Action:        d.Action,
		Terminate:     d.Terminate,
		Value:         d.Value,
		QValues:       q,
		LeafBound:     leaf,
		BoundGap:      d.Value - leaf,
		BeliefEntropy: pi.Entropy(),
		SetSize:       b.set.Size(),
		SetEvictions:  b.set.Evictions(),
		Tier:          TierTree,
	}
	if d.Terminate && b.cfg.TerminateAction < 0 {
		// Certainty termination has no model action behind it.
		st.Action = -1
	}
	return st
}

// StatsEnabled implements StatsSource.
func (b *Bounded) StatsEnabled() bool { return b.cfg.CollectStats }

// LastTier implements TierSource: every Bounded decision is a Max-Avg tree
// expansion.
func (b *Bounded) LastTier() string { return TierTree }

// DecisionStats implements StatsSource: the stats of the most recent Decide
// (or of the last belief decided by a sequential-fallback DecideBatch).
// Valid until the next decision call; only meaningful with CollectStats.
func (b *Bounded) DecisionStats() DecisionStats { return b.lastStats }

// BatchDecisionStats implements BatchStatsSource: per-belief stats of the
// most recent DecideBatch, indexed like its pis argument. Valid until the
// next decision call; only meaningful with CollectStats.
func (b *Bounded) BatchDecisionStats() []DecisionStats { return b.batchStats }

// toDecision converts a root backup into a Decision, applying the a_T
// tie-break shared with the FSC compiler.
func (b *Bounded) toDecision(res *pomdp.BackupResult) Decision {
	return decisionFromBackup(res, b.cfg.TerminateAction)
}

// decisionFromBackup converts a root backup into a Decision, applying the
// a_T tie-break: Property 1(a) demands no free actions outside s_T, but real
// models often have a zero-cost passive action at the Sφ vertex (monitoring
// a healthy system drops no requests). At that vertex Q(a_T) ties the
// maximum and a plain argmax can loop on the free action forever;
// terminating on a tie costs nothing by the controller's own estimate and
// restores the termination guarantee. It is shared by the online controller
// and the FSC compiler so compiled nodes replay exactly the decision the
// tree would make.
func decisionFromBackup(res *pomdp.BackupResult, terminateAction int) Decision {
	d := Decision{Action: res.Action, Value: res.Value}
	if terminateAction >= 0 &&
		(res.Action == terminateAction || res.QValues[terminateAction] >= res.Value-1e-9) {
		d.Action = terminateAction
		d.Terminate = true
	}
	return d
}

// DecideBatch implements BatchDecider: it decides for every belief in pis
// independently of the tracked episode belief, writing Decision j into
// out[j]. Certainty-terminated beliefs (recovery notification) are answered
// directly; the rest share one batched tree expansion, with results
// bit-identical to per-belief Decide calls.
//
// With ImproveOnline or CheckConsistency configured the controller falls
// back to sequential per-belief decisions, because both mutate or audit the
// shared bound set between decisions and a batched expansion would observe
// a different set than the sequential order does.
func (b *Bounded) DecideBatch(pis []pomdp.Belief, out []Decision) error {
	if len(out) < len(pis) {
		return fmt.Errorf("controller: batch decision buffer length %d < %d beliefs", len(out), len(pis))
	}
	collect := b.cfg.CollectStats
	if collect {
		b.growBatchStats(len(pis))
	}
	if b.updater != nil || b.cfg.CheckConsistency {
		for j, pi := range pis {
			d, err := b.decideAt(pi)
			if err != nil {
				return fmt.Errorf("controller: batch belief %d: %w", j, err)
			}
			out[j] = d
			if collect {
				st := b.lastStats
				st.QValues = b.retainQ(st.QValues)
				b.batchStats[j] = st
			}
		}
		return nil
	}
	n := b.p.NumStates()
	b.batchIdx = b.batchIdx[:0]
	b.batchPis = b.batchPis[:0]
	var before EngineCounters
	if collect {
		before = b.engine.Counters()
	}
	for j, pi := range pis {
		if len(pi) != n {
			return fmt.Errorf("controller: batch belief %d length %d, want %d", j, len(pi), n)
		}
		if b.cfg.TerminateAction < 0 && pi.Mass(b.nullSet) >= certainty {
			out[j] = Decision{Terminate: true, Value: 0}
			if collect {
				b.batchStats[j] = b.statsFor(pi, out[j], nil)
			}
			continue
		}
		b.batchIdx = append(b.batchIdx, j)
		b.batchPis = append(b.batchPis, pi)
	}
	if len(b.batchIdx) == 0 {
		return nil
	}
	// Grow the result buffer while keeping the QValues slices already
	// allocated in earlier calls, so the steady state allocates nothing.
	if cap(b.batchRes) < len(b.batchIdx) {
		grown := make([]pomdp.BackupResult, len(b.batchIdx))
		copy(grown, b.batchRes[:cap(b.batchRes)])
		b.batchRes = grown
	}
	b.batchRes = b.batchRes[:len(b.batchIdx)]
	if err := b.engine.ChooseBatch(b.batchPis, b.batchRes); err != nil {
		return err
	}
	for k, j := range b.batchIdx {
		out[j] = b.toDecision(&b.batchRes[k])
	}
	if collect {
		// One shared expansion served the whole batch: attribute the engine-
		// counter deltas evenly across its members (remainder to the first),
		// so summing the per-decision stats reproduces the true totals.
		after := b.engine.Counters()
		m := uint64(len(b.batchIdx))
		dn, dl, ds := after.Nodes-before.Nodes, after.LeafEvals-before.LeafEvals, after.SlabPasses-before.SlabPasses
		for k, j := range b.batchIdx {
			st := b.statsFor(b.batchPis[k], out[j], b.batchRes[k].QValues)
			st.TreeNodes = dn / m
			st.LeafEvals = dl / m
			st.SlabPasses = ds / m
			if k == 0 {
				st.TreeNodes += dn % m
				st.LeafEvals += dl % m
				st.SlabPasses += ds % m
			}
			b.batchStats[j] = st
		}
	}
	return nil
}

// growBatchStats sizes the per-belief stats buffer and its QValues slab for
// a DecideBatch over m beliefs. The slab is sized upfront so mid-loop
// appends cannot reallocate it out from under earlier entries' aliases.
func (b *Bounded) growBatchStats(m int) {
	if cap(b.batchStats) < m {
		b.batchStats = make([]DecisionStats, m)
	}
	b.batchStats = b.batchStats[:m]
	need := m * b.p.NumActions()
	if cap(b.batchStatsQ) < need {
		b.batchStatsQ = make([]float64, 0, need)
	}
	b.batchStatsQ = b.batchStatsQ[:0]
}

// retainQ copies q into the batch QValues slab and returns the stable view.
func (b *Bounded) retainQ(q []float64) []float64 {
	if q == nil {
		return nil
	}
	start := len(b.batchStatsQ)
	b.batchStatsQ = append(b.batchStatsQ, q...)
	return b.batchStatsQ[start:len(b.batchStatsQ):len(b.batchStatsQ)]
}
