package sim

import (
	"fmt"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// beliefFilter is the per-episode Bayes filter of the batched campaign
// engine: it tracks one live episode's belief exactly as the belief-based
// controllers do (ping-ponged UpdateInto buffers, zero allocations per
// step), while the decisions for all live episodes come from one shared
// controller.BatchDecider. Splitting the filter from the decider is what
// lets a single decision engine amortize its tree expansion across a whole
// stripe of episodes.
type beliefFilter struct {
	p      *pomdp.POMDP
	sc     *pomdp.Scratch
	belief pomdp.Belief
	spare  pomdp.Belief
	name   string
}

// newBeliefFilter builds a filter over p sharing the given update scratch.
// A worker's filters advance strictly sequentially (the scratch is transient
// per UpdateInto call), so one scratch serves a whole stripe — the scratch
// is by far the heaviest part of a filter to build.
func newBeliefFilter(p *pomdp.POMDP, sc *pomdp.Scratch, name string) *beliefFilter {
	return &beliefFilter{p: p, sc: sc, name: name}
}

// Name implements stepObserver.
func (f *beliefFilter) Name() string { return f.name }

// Reset starts a new episode from the given initial belief, with the same
// validations the controllers' belief tracker applies.
func (f *beliefFilter) Reset(initial pomdp.Belief) error {
	n := f.p.NumStates()
	if len(initial) != n {
		return fmt.Errorf("sim: initial belief length %d, want %d", len(initial), n)
	}
	if !initial.IsDistribution() {
		return fmt.Errorf("sim: initial belief %v is not a distribution", initial)
	}
	if len(f.belief) != n {
		f.belief = make(pomdp.Belief, n)
	}
	if len(f.spare) != n {
		f.spare = make(pomdp.Belief, n)
	}
	copy(f.belief, initial)
	return nil
}

// Observe implements stepObserver with the same Bayes update (and therefore
// bit-identical belief trajectories) as the controllers' tracker.
func (f *beliefFilter) Observe(action, obs int) error {
	next, err := f.p.UpdateInto(f.sc, f.spare, f.belief, action, obs)
	if err != nil {
		return err
	}
	f.belief, f.spare = next, f.belief
	return nil
}

// batchEpisode is one live episode of a batched campaign worker. Episode
// objects are arena-recycled across the campaign: the RNG stream is reseeded
// in place (rng.Stream.SplitNInto) and the belief filter stays attached, so
// the steady state of a batched campaign starts episodes without allocating.
type batchEpisode struct {
	index  int // campaign episode index (RNG stream and fold order)
	fault  int
	state  int
	stream *rng.Stream
	flt    *beliefFilter
	res    EpisodeResult
}

// runWorkerBatched is runWorker's batched-stepping twin: it keeps up to
// BatchSize episodes of worker w's stripe live at once and advances all of
// them with one BatchDecider call per round. Episode trajectories are
// bit-identical to sequential stepping — per-episode RNG streams are
// derived the same way, the belief filters perform the same updates, and
// DecideBatch is contractually bit-identical to Decide — and each episode's
// outcome lands in the same slot, so the folded CampaignResult (wall-clock
// AlgoTime aside) is exactly the sequential worker's.
//
// Failures are recorded per episode as in runWorker; live episodes above a
// recorded campaign failure are dropped as never run. The one necessarily
// coarser case is a DecideBatch error, which cannot be attributed to a
// single episode and fails every episode live at that moment.
func (c *campaign) runWorkerBatched(w int, ctrl controller.Controller, initial pomdp.Belief) {
	r := c.r
	p := r.rm.POMDP
	bd := c.opts.BatchDecider
	if bd == nil {
		bd, _ = ctrl.(controller.BatchDecider)
	}
	if bd == nil {
		c.fail(w, fmt.Errorf("sim: batched stepping needs a controller.BatchDecider (set CampaignOptions.BatchDecider or use a batch-capable controller)"), true)
		return
	}
	// The belief filters must track the decider's state space, not the
	// simulated base model: the Section 3.1 transforms append termination
	// states, so the decider's model is usually wider. Base action and
	// observation indices coincide (the transforms guarantee it), which is
	// what lets the base-model simulator feed a transformed-model filter.
	fp := p
	if m, ok := bd.(interface{ Model() *pomdp.POMDP }); ok && m.Model() != nil {
		fp = m.Model()
	}
	if len(initial) != fp.NumStates() {
		c.fail(w, fmt.Errorf("sim: initial belief length %d does not match the batch decider's %d-state model", len(initial), fp.NumStates()), true)
		return
	}
	name := "batched"
	if n, ok := bd.(interface{ Name() string }); ok {
		name = n.Name()
	} else if ctrl != nil {
		name = ctrl.Name()
	}
	c.named(w, w, name)

	// Batched decision-stat collection, resolved once per worker.
	var bss controller.BatchStatsSource
	if s, ok := bd.(controller.BatchStatsSource); ok && s.StatsEnabled() {
		bss = s
	}

	batch := c.opts.BatchSize
	obsAction := r.rm.MonitorAction
	// One update scratch shared by every filter of this worker's stripe.
	filterScratch := pomdp.NewScratch(fp)
	live := make([]*batchEpisode, 0, batch)
	free := make([]*batchEpisode, 0, batch)
	beliefs := make([]pomdp.Belief, 0, batch)
	decisions := make([]controller.Decision, batch)
	next := w // next episode index of this worker's stripe
	episodes := len(c.outcomes)

	fail := func(e *batchEpisode, err error) {
		c.fail(e.index, fmt.Errorf("sim: episode %d (fault %s): %w", e.index, p.M.StateName(e.fault), err), false)
	}
	// release returns the episode object (with its stream and filter) to
	// the arena for the next start to reuse.
	release := func(e *batchEpisode) {
		free = append(free, e)
	}

	// start refills the live set from the stripe: derive the episode
	// stream, inject the fault, reset a filter, and run the initial
	// detection sweep — exactly RunEpisode's preamble. Recycled episode
	// objects reseed their stream in place, so the steady state allocates
	// nothing per episode.
	start := func() {
		for len(live) < batch && next < episodes && !c.stopped(next) {
			i := next
			next += c.workers
			var e *batchEpisode
			if len(free) > 0 {
				e = free[len(free)-1]
				free = free[:len(free)-1]
			} else {
				e = &batchEpisode{}
			}
			e.stream = c.stream.SplitNInto(e.stream, "episode", i)
			fault := c.faultStates[e.stream.IntN(len(c.faultStates))]
			e.index, e.fault, e.state = i, fault, fault
			e.res = EpisodeResult{Injected: fault}
			if fault < 0 || fault >= p.NumStates() {
				fail(e, fmt.Errorf("sim: fault state %d out of range [0,%d)", fault, p.NumStates()))
				release(e)
				continue
			}
			if e.flt == nil {
				e.flt = newBeliefFilter(fp, filterScratch, name)
			}
			if err := e.flt.Reset(initial); err != nil {
				fail(e, fmt.Errorf("sim: reset %s: %w", name, err))
				release(e)
				continue
			}
			st, err := r.step(e.flt, &e.res, e.state, obsAction, e.stream)
			if err != nil {
				fail(e, err)
				release(e)
				continue
			}
			e.state = st
			e.res.Steps = 1
			live = append(live, e)
		}
	}

	for {
		start()
		if len(live) == 0 {
			break
		}
		// Step-budget sweep (the sequential loop's condition), plus
		// dropping episodes above a recorded campaign failure, which the
		// fold never reaches.
		kept := live[:0]
		for _, e := range live {
			if c.stopped(e.index) {
				release(e)
				continue
			}
			if e.res.Steps > r.maxStep {
				fail(e, fmt.Errorf("sim: %s after %d steps: %w", name, r.maxStep, ErrTimedOut))
				release(e)
				continue
			}
			kept = append(kept, e)
		}
		live = kept
		if len(live) == 0 {
			continue
		}

		beliefs = beliefs[:0]
		for _, e := range live {
			beliefs = append(beliefs, e.flt.belief)
		}
		t0 := time.Now()
		err := bd.DecideBatch(beliefs, decisions[:len(live)])
		elapsed := time.Since(t0)
		share := elapsed / time.Duration(len(live))
		for _, e := range live {
			e.res.AlgoTime += share
		}
		if err != nil {
			derr := fmt.Errorf("sim: %s decide: %w", name, err)
			for _, e := range live {
				fail(e, derr)
				release(e)
			}
			live = live[:0]
			continue
		}
		if bss != nil {
			sts := bss.BatchDecisionStats()
			for k, e := range live {
				e.res.addStats(sts[k])
			}
		}

		kept = live[:0]
		for k, e := range live {
			d := decisions[k]
			switch {
			case d.Terminate:
				e.res.Recovered = r.isNull[e.state]
				c.complete(e.index, e.res)
				release(e)
			case d.Action < 0 || d.Action >= p.NumActions():
				fail(e, fmt.Errorf("sim: %s chose invalid action %d", name, d.Action))
				release(e)
			default:
				if d.Action != obsAction {
					e.res.Actions++
				}
				st, err := r.step(e.flt, &e.res, e.state, d.Action, e.stream)
				if err != nil {
					fail(e, err)
					release(e)
					continue
				}
				e.state = st
				e.res.Steps++
				kept = append(kept, e)
			}
		}
		live = kept
	}
}
