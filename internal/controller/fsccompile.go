package controller

import (
	"errors"
	"fmt"

	"bpomdp/internal/bounds"
	"bpomdp/internal/pomdp"
)

// FSCCompileConfig configures the offline FSC compiler.
type FSCCompileConfig struct {
	// Depth is the Max-Avg expansion depth decisions are compiled with
	// (default 1, as in the paper's evaluation). It must match the depth of
	// the tree controller the table will stand in for, or parity is lost.
	Depth int
	// Beta is the discount factor; zero means 1 (undiscounted).
	Beta float64
	// TerminateAction is a_T's index, or −1 for recovery-notification
	// models.
	TerminateAction int
	// NullStates is Sφ; required in the recovery-notification regime, where
	// compiled nodes terminate on belief certainty exactly like the online
	// controller.
	NullStates []int
	// InitialObservationAction is the action whose observation function
	// generates an episode's first monitor output (the passive observe
	// action). Root nodes compile their edges under it, because the runtime
	// observes one monitor sweep before the first decision.
	InitialObservationAction int
	// MaxNodes caps the table size; zero means 4096. The breadth-first
	// expansion compiles the shallowest reachable beliefs first, so a cap
	// trims the deep tail of long episodes — exactly the beliefs the
	// fallback tier exists for.
	MaxNodes int
	// Improve, when true, runs one incremental bound update at every
	// compiled belief before deciding (the bootstrapping backup of §4.1),
	// which drives compiled gaps toward zero but mutates the set — decisions
	// are then only guaranteed to match a tree running over the final set
	// where the recorded gap is still within threshold. Leave false to
	// compile against a frozen set with exact decision parity.
	Improve bool
}

// CompileFSC extracts a sparse finite-state controller from the bounded
// controller: starting from the given root beliefs (typically the episode
// initial belief, optionally augmented with Bootstrapper-sampled posteriors)
// it breadth-first enumerates the reachable belief graph, records at every
// belief the exact Decision the Max-Avg tree makes over the set, annotates
// it with the observed bound gap, and links per-observation successor
// edges.
//
// The compiler shares the belief-update kernel, engine construction, and
// a_T tie-break with Bounded, so a compiled node replays bit-identically
// what Bounded.Decide would return at the same belief over the same set.
func CompileFSC(p *pomdp.POMDP, set *bounds.Set, roots []pomdp.Belief, cfg FSCCompileConfig) (*FSC, error) {
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	if cfg.Beta == 0 {
		cfg.Beta = 1
	}
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 4096
	}
	if cfg.MaxNodes < 0 {
		return nil, fmt.Errorf("controller: fsc compile with negative node budget %d", cfg.MaxNodes)
	}
	if set == nil || set.Size() == 0 {
		return nil, fmt.Errorf("controller: fsc compile needs a non-empty bound set (compute the RA-Bound first)")
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
	if cfg.InitialObservationAction < 0 || cfg.InitialObservationAction >= p.NumActions() {
		return nil, fmt.Errorf("controller: initial observation action %d out of range", cfg.InitialObservationAction)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("controller: fsc compile needs at least one root belief")
	}
	engine, err := NewEngine(p, cfg.Depth, cfg.Beta, set)
	if err != nil {
		return nil, err
	}
	var updater *bounds.Updater
	if cfg.Improve {
		updater, err = bounds.NewUpdater(p, set, bounds.Options{Beta: cfg.Beta})
		if err != nil {
			return nil, err
		}
	}

	f := &FSC{
		states:          p.NumStates(),
		actions:         p.NumActions(),
		observations:    p.NumObservations(),
		depth:           cfg.Depth,
		beta:            cfg.Beta,
		terminateAction: cfg.TerminateAction,
		index:           make(map[string]int32),
	}
	var keyBuf []byte
	for r, root := range roots {
		if len(root) != f.states {
			return nil, fmt.Errorf("controller: root belief %d length %d, want %d", r, len(root), f.states)
		}
		if !root.IsDistribution() {
			return nil, fmt.Errorf("controller: root belief %d is not a distribution", r)
		}
		keyBuf = appendBeliefKey(keyBuf[:0], root)
		if _, ok := f.index[string(keyBuf)]; ok {
			continue
		}
		if len(f.nodes) >= cfg.MaxNodes {
			break
		}
		f.index[string(keyBuf)] = int32(len(f.nodes))
		f.nodes = append(f.nodes, FSCNode{
			Belief: root.Clone(),
			Action: -1,
			// Episodes observe one monitor sweep before the first decision,
			// so root edges condition on the monitor action.
			EdgeAction: cfg.InitialObservationAction,
		})
	}

	sc := pomdp.NewScratch(p)
	nullSet := pomdp.SortedStates(cfg.NullStates)
	var res pomdp.BackupResult
	// The node slice doubles as the BFS queue: nodes are appended as their
	// beliefs are discovered and expanded in index order, so the cheapest
	// (shallowest) beliefs win the budget.
	for i := 0; i < len(f.nodes); i++ {
		pi := f.nodes[i].Belief
		if updater != nil {
			if _, err := updater.UpdateAt(pi); err != nil {
				return nil, fmt.Errorf("controller: fsc compile bound update at node %d: %w", i, err)
			}
		}
		// Decide exactly like Bounded.decideAt: certainty check first, then
		// one tree expansion with the a_T tie-break, and the bound gap read
		// through Peek so compiling cannot perturb least-used eviction.
		var d Decision
		var gap float64
		if cfg.TerminateAction < 0 && pi.Mass(nullSet) >= certainty {
			d = Decision{Terminate: true, Value: 0}
			gap = d.Value - set.Peek(pi)
		} else {
			if err := engine.ChooseInto(pi, &res); err != nil {
				return nil, fmt.Errorf("controller: fsc compile decide at node %d: %w", i, err)
			}
			d = decisionFromBackup(&res, cfg.TerminateAction)
			gap = d.Value - set.Peek(pi)
		}
		f.nodes[i].Action = d.Action
		f.nodes[i].Terminate = d.Terminate
		f.nodes[i].Value = d.Value
		f.nodes[i].Gap = gap
		ea := f.nodes[i].EdgeAction
		if ea < 0 {
			ea = d.Action
			f.nodes[i].EdgeAction = ea
		}
		if d.Terminate && ea == d.Action {
			// The decision ends the episode; there is no next observation.
			continue
		}
		edges := make([]int32, f.observations)
		for o := range edges {
			edges[o] = -1
			next, err := p.Update(sc, pi, ea, o)
			if errors.Is(err, pomdp.ErrImpossibleObservation) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("controller: fsc compile successor of node %d under obs %d: %w", i, o, err)
			}
			keyBuf = appendBeliefKey(keyBuf[:0], next)
			if j, ok := f.index[string(keyBuf)]; ok {
				edges[o] = j
				continue
			}
			if len(f.nodes) >= cfg.MaxNodes {
				continue
			}
			j := int32(len(f.nodes))
			f.index[string(keyBuf)] = j
			f.nodes = append(f.nodes, FSCNode{Belief: next, Action: -1, EdgeAction: -1})
			edges[o] = j
		}
		f.nodes[i].Edges = edges
	}
	return f, nil
}
