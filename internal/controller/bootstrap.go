package controller

import (
	"errors"
	"fmt"

	"bpomdp/internal/bounds"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// BootstrapVariant selects how the bootstrapping phase generates the
// initial belief of each simulated recovery episode (Section 5, Figure 5).
type BootstrapVariant int

const (
	// VariantRandom injects a random fault, samples a monitor output for
	// it, and starts from the posterior belief given that output — the
	// "Random" series of Figure 5.
	VariantRandom BootstrapVariant = iota + 1
	// VariantAverage starts every episode from the belief in which all
	// faults are equally likely — the "Average" series of Figure 5.
	VariantAverage
)

// String implements fmt.Stringer.
func (v BootstrapVariant) String() string {
	switch v {
	case VariantRandom:
		return "random"
	case VariantAverage:
		return "average"
	default:
		return fmt.Sprintf("BootstrapVariant(%d)", int(v))
	}
}

// BootstrapConfig configures the bootstrapping phase.
type BootstrapConfig struct {
	// Variant is the initial-belief generation scheme.
	Variant BootstrapVariant
	// Depth is the Max-Avg expansion depth used for action selection during
	// bootstrap episodes.
	Depth int
	// Beta is the discount factor; zero means 1.
	Beta float64
	// FaultStates are the states faults are injected from (sampled
	// uniformly each episode).
	FaultStates []int
	// NullStates is Sφ.
	NullStates []int
	// TerminateAction is a_T's index, or -1 for recovery-notification
	// models.
	TerminateAction int
	// InitialObservationAction is the action whose observation function is
	// used to sample the episode's first monitor output (the passive
	// observe action in recovery models). Only used by VariantRandom.
	InitialObservationAction int
	// MaxSteps caps each simulated episode; zero means 100.
	MaxSteps int
}

// IterationStats reports one bootstrap episode, providing the two series of
// Figure 5: the bound value at the uniform belief (5a, negated it is the
// upper bound on cost) and the number of bound vectors (5b).
type IterationStats struct {
	// Iteration counts episodes from 1.
	Iteration int
	// BoundAtUniform is V_B⁻ evaluated at the belief {1/|S|} over the
	// original states (s_T excluded).
	BoundAtUniform float64
	// Vectors is the number of hyperplanes in the bound set.
	Vectors int
	// Steps is the number of decision steps the episode took.
	Steps int
}

// Bootstrapper improves a bound set by simulating recovery episodes: faults
// are injected, monitor outputs are sampled from the observation function,
// and the bound is incrementally updated at every belief the controller
// visits ("bootstrapping phase", Section 4.1).
type Bootstrapper struct {
	p       *pomdp.POMDP
	set     *bounds.Set
	updater *bounds.Updater
	engine  *Engine
	res     pomdp.BackupResult // root backup scratch, reused across steps
	cfg     BootstrapConfig
	stream  *rng.Stream
	sc      *pomdp.Scratch
	uniform pomdp.Belief
	iter    int
}

// NewBootstrapper builds a bootstrapper improving set in place on the
// (already transformed) model p.
func NewBootstrapper(p *pomdp.POMDP, set *bounds.Set, cfg BootstrapConfig, stream *rng.Stream) (*Bootstrapper, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Variant != VariantRandom && cfg.Variant != VariantAverage {
		return nil, fmt.Errorf("controller: unknown bootstrap variant %v", cfg.Variant)
	}
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	if cfg.Beta == 0 {
		cfg.Beta = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 100
	}
	if len(cfg.FaultStates) == 0 {
		return nil, fmt.Errorf("controller: bootstrap needs FaultStates to inject")
	}
	n := p.NumStates()
	for _, s := range append(append([]int(nil), cfg.FaultStates...), cfg.NullStates...) {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("controller: state %d out of range [0,%d)", s, n)
		}
	}
	if cfg.TerminateAction >= p.NumActions() {
		return nil, fmt.Errorf("controller: terminate action %d out of range", cfg.TerminateAction)
	}
	if cfg.InitialObservationAction < 0 || cfg.InitialObservationAction >= p.NumActions() {
		return nil, fmt.Errorf("controller: initial observation action %d out of range", cfg.InitialObservationAction)
	}
	if stream == nil {
		return nil, fmt.Errorf("controller: nil rng stream")
	}
	updater, err := bounds.NewUpdater(p, set, bounds.Options{Beta: cfg.Beta})
	if err != nil {
		return nil, err
	}
	engine, err := NewEngine(p, cfg.Depth, cfg.Beta, set)
	if err != nil {
		return nil, err
	}
	// The reference belief of Figure 5(a): uniform over the original
	// states, excluding the synthetic s_T when present.
	var uniform pomdp.Belief
	if cfg.TerminateAction >= 0 {
		orig := make([]int, 0, n-1)
		for s := 0; s < n; s++ {
			if p.M.StateName(s) != pomdp.TerminatedStateName {
				orig = append(orig, s)
			}
		}
		uniform, err = pomdp.UniformOver(n, orig)
		if err != nil {
			return nil, err
		}
	} else {
		uniform = pomdp.UniformBelief(n)
	}
	return &Bootstrapper{
		p:       p,
		set:     set,
		updater: updater,
		engine:  engine,
		cfg:     cfg,
		stream:  stream,
		sc:      pomdp.NewScratch(p),
		uniform: uniform,
	}, nil
}

// Set returns the bound set being improved.
func (b *Bootstrapper) Set() *bounds.Set { return b.set }

// ReferenceBelief returns the belief at which BoundAtUniform is evaluated.
func (b *Bootstrapper) ReferenceBelief() pomdp.Belief { return b.uniform.Clone() }

// Run performs n bootstrap episodes and returns their per-iteration stats.
func (b *Bootstrapper) Run(n int) ([]IterationStats, error) {
	out := make([]IterationStats, 0, n)
	for i := 0; i < n; i++ {
		st, err := b.Iterate()
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// Iterate runs one simulated recovery episode, updating the bound at every
// visited belief, and reports the Figure 5 series values afterwards.
func (b *Bootstrapper) Iterate() (IterationStats, error) {
	b.iter++
	episode := b.stream.SplitN("bootstrap-episode", b.iter)

	trueState := b.cfg.FaultStates[episode.IntN(len(b.cfg.FaultStates))]
	belief := b.uniform.Clone()
	if b.cfg.Variant == VariantRandom {
		aInit := b.cfg.InitialObservationAction
		// Sample the monitor output the injected fault would produce and
		// condition the uniform prior on it.
		obs, err := b.sampleObservation(episode, trueState, aInit)
		if err != nil {
			return IterationStats{}, err
		}
		if next, err := b.p.Update(b.sc, belief, aInit, obs); err == nil {
			belief = next
		} else if !errors.Is(err, pomdp.ErrImpossibleObservation) {
			return IterationStats{}, err
		}
	}

	steps := 0
	for ; steps < b.cfg.MaxSteps; steps++ {
		if _, err := b.updater.UpdateAt(belief); err != nil {
			return IterationStats{}, err
		}
		if err := b.engine.ChooseInto(belief, &b.res); err != nil {
			return IterationStats{}, err
		}
		res := &b.res
		if b.cfg.TerminateAction >= 0 && res.Action == b.cfg.TerminateAction {
			break
		}
		if b.cfg.TerminateAction < 0 && belief.Mass(b.cfg.NullStates) >= 1-1e-9 {
			break
		}
		next, err := b.sampleTransition(episode, trueState, res.Action)
		if err != nil {
			return IterationStats{}, err
		}
		obs, err := b.sampleObservation(episode, next, res.Action)
		if err != nil {
			return IterationStats{}, err
		}
		nb, err := b.p.Update(b.sc, belief, res.Action, obs)
		if err != nil {
			return IterationStats{}, err
		}
		trueState, belief = next, nb
	}
	return IterationStats{
		Iteration:      b.iter,
		BoundAtUniform: b.set.Value(b.uniform),
		Vectors:        b.set.Size(),
		Steps:          steps,
	}, nil
}

func (b *Bootstrapper) sampleTransition(stream *rng.Stream, s, a int) (int, error) {
	weights := make([]float64, b.p.NumStates())
	b.p.M.Trans[a].Row(s, func(c int, v float64) { weights[c] = v })
	next, err := stream.Categorical(weights)
	if err != nil {
		return 0, fmt.Errorf("controller: sample transition from %s under %s: %w",
			b.p.M.StateName(s), b.p.M.ActionName(a), err)
	}
	return next, nil
}

func (b *Bootstrapper) sampleObservation(stream *rng.Stream, s, a int) (int, error) {
	weights := make([]float64, b.p.NumObservations())
	b.p.Obs[a].Row(s, func(o int, v float64) { weights[o] = v })
	obs, err := stream.Categorical(weights)
	if err != nil {
		return 0, fmt.Errorf("controller: sample observation in %s under %s: %w",
			b.p.M.StateName(s), b.p.M.ActionName(a), err)
	}
	return obs, nil
}
