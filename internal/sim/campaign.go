package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/stats"
)

// CampaignResult aggregates the per-fault averages of a fault-injection
// campaign — one Table 1 row.
type CampaignResult struct {
	// Name labels the controller.
	Name string
	// Episodes and Recovered count injections and successful recoveries.
	Episodes, Recovered int
	// Abandoned counts episodes that failed with an error instead of
	// terminating (only non-zero with CampaignOptions.ContinueOnError).
	Abandoned int
	// Per-fault metric accumulators.
	Cost, RecoveryTime, ResidualTime, AlgoTimeMs, Actions, MonitorCalls stats.Accumulator

	// Decision-stat aggregates, non-zero only when the campaign's
	// controllers collect per-decision stats: total decisions covered, the
	// Max-Avg expansion work they performed, and per-episode means of the
	// bound gap (Property 1(b) slack) and decision-time belief entropy.
	Decisions                        int
	TreeNodes, LeafEvals, SlabPasses uint64
	BoundGap, BeliefEntropy          stats.Accumulator
	// FSCDecisions and TreeDecisions split Decisions by serving tier: table
	// hits of a compiled FSC vs Max-Avg tree expansions (including FSC
	// fallbacks). Zero unless the controllers collect stats.
	FSCDecisions, TreeDecisions int
}

// add folds one successful episode into the aggregate.
func (c *CampaignResult) add(res EpisodeResult) {
	c.Episodes++
	if res.Recovered {
		c.Recovered++
	}
	c.Cost.Add(res.Cost)
	c.RecoveryTime.Add(res.RecoveryTime)
	c.ResidualTime.Add(res.ResidualTime)
	c.AlgoTimeMs.Add(float64(res.AlgoTime) / float64(time.Millisecond))
	c.Actions.Add(float64(res.Actions))
	c.MonitorCalls.Add(float64(res.MonitorCalls))
	if res.Decisions > 0 {
		c.Decisions += res.Decisions
		c.TreeNodes += res.TreeNodes
		c.LeafEvals += res.LeafEvals
		c.SlabPasses += res.SlabPasses
		c.BoundGap.Add(res.BoundGapSum / float64(res.Decisions))
		c.BeliefEntropy.Add(res.EntropySum / float64(res.Decisions))
		c.FSCDecisions += res.FSCDecisions
		c.TreeDecisions += res.TreeDecisions
	}
}

// ControllerFactory builds an independent controller (and its initial
// belief) for one worker. Controllers are stateful and not safe for
// concurrent use, so the parallel campaign gives each worker its own.
type ControllerFactory func() (controller.Controller, pomdp.Belief, error)

// CampaignOptions tunes RunCampaignOpts. The zero value runs the campaign
// with the shared controller on the calling goroutine, one episode at a
// time — the classic Table 1 loop. Workers and BatchSize are throughput
// knobs only: every mode folds the same episode outcomes in episode-index
// order (see RunCampaignOpts), so neither changes the CampaignResult.
type CampaignOptions struct {
	// ContinueOnError records a failed episode as Abandoned and moves on to
	// the next injection instead of aborting the campaign — the right mode
	// when the controller sits behind an unreliable transport and an
	// episode-level failure is itself a measurement.
	ContinueOnError bool
	// EpisodeFactory, when set, supplies a fresh controller per episode
	// (e.g. a new remote episode from a client); ctrl passed to the
	// campaign is ignored. The second return value, when non-nil, is called
	// after the episode with its error (nil on success) — a cleanup hook
	// for abandoning remote episodes. With more than one worker the factory
	// is called concurrently from worker goroutines and must be safe for
	// that.
	EpisodeFactory func(episode int) (controller.Controller, func(error), error)
	// Workers is the number of campaign goroutines, one of them the calling
	// goroutine; episode i is run by worker i mod Workers. A negative count
	// is rejected.
	//
	// Workers == 0 auto-tunes: when a WorkerFactory or EpisodeFactory makes
	// parallel execution possible, the count is picked from the episode
	// count and GOMAXPROCS (never more than one worker per four episodes,
	// never more than GOMAXPROCS); with only a shared controller it is one.
	Workers int
	// WorkerFactory supplies each worker's private controller and initial
	// belief. Required when Workers > 1 and no EpisodeFactory is set: a
	// shared ctrl is stateful and cannot be driven from several goroutines.
	WorkerFactory ControllerFactory
	// BatchSize > 0 enables batched stepping: each worker keeps up to
	// BatchSize episodes live at once and advances them together through
	// one BatchDecider call per round, amortizing tree expansion and
	// leaf-bound evaluation across the batch. Per-episode RNG streams,
	// trajectories, and metrics are bit-identical to sequential stepping.
	// Batched stepping drives bare belief filters instead of the episode
	// controller, so it is incompatible with EpisodeFactory and does not
	// feed StateAware controllers. A negative size is rejected.
	BatchSize int
	// BatchDecider supplies the decision engine for batched stepping. When
	// nil, the worker's controller (shared ctrl or WorkerFactory product)
	// must implement controller.BatchDecider. A BatchDecider is stateful
	// scratch-wise and must not be shared between workers; setting it with
	// Workers > 1 is rejected — use a WorkerFactory whose controllers
	// implement controller.BatchDecider instead.
	BatchDecider controller.BatchDecider
}

// RunCampaign injects episodes faults (uniformly over faultStates) and
// aggregates per-fault metrics. Episode RNG streams are derived from the
// given stream per episode index, so campaigns are reproducible and
// insensitive to controller internals.
func (r *Runner) RunCampaign(ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream) (CampaignResult, error) {
	return r.RunCampaignOpts(ctrl, initial, faultStates, episodes, stream, CampaignOptions{})
}

// RunCampaignOpts is the campaign engine: RunCampaign plus per-episode
// controller factories, error tolerance, multi-worker execution and
// batched stepping (see CampaignOptions).
//
// Every mode records each episode's outcome — a result, a failure, or
// not run — in a slot indexed by episode number, and folds the slots once,
// in index order, after the workers join. Episode i draws the same derived
// RNG stream in every mode, so the CampaignResult (the wall-clock
// AlgoTimeMs aside) does not depend on Workers, BatchSize or GOMAXPROCS —
// provided an episode's result does not depend on the episodes its
// controller ran before, as with an EpisodeFactory or controllers that do
// not adapt. A WorkerFactory of adaptive controllers (online bound
// improvement) learns along its own stripe of episodes, so such a campaign
// is reproducible only for a fixed worker count.
//
// With ContinueOnError a failed episode counts as Abandoned. Otherwise the
// campaign fails at its lowest failing episode index: the result holds
// exactly the episodes before it, and the error is that episode's. Workers
// stop starting episodes above the lowest failure seen so far. A
// WorkerFactory error fails the campaign at the worker's first episode
// index, even under ContinueOnError.
func (r *Runner) RunCampaignOpts(ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream, opts CampaignOptions) (CampaignResult, error) {
	var out CampaignResult
	if ctrl != nil {
		out.Name = ctrl.Name()
	}
	if len(faultStates) == 0 {
		return out, fmt.Errorf("sim: no fault states to inject")
	}
	if episodes < 1 {
		return out, fmt.Errorf("sim: non-positive episode count %d", episodes)
	}
	if ctrl == nil && opts.EpisodeFactory == nil && opts.WorkerFactory == nil && opts.BatchDecider == nil {
		return out, fmt.Errorf("sim: nil controller and no episode or worker factory")
	}
	if opts.Workers < 0 {
		return out, fmt.Errorf("sim: negative worker count %d", opts.Workers)
	}
	if opts.BatchSize < 0 {
		return out, fmt.Errorf("sim: negative batch size %d", opts.BatchSize)
	}
	if opts.BatchSize > 0 && opts.EpisodeFactory != nil {
		return out, fmt.Errorf("sim: batched stepping is incompatible with EpisodeFactory")
	}
	if opts.BatchDecider != nil && opts.BatchSize == 0 {
		return out, fmt.Errorf("sim: BatchDecider set without a positive BatchSize")
	}
	workers := opts.Workers
	if workers == 0 {
		workers = 1
		if opts.WorkerFactory != nil || opts.EpisodeFactory != nil {
			workers = autoWorkers(episodes, runtime.GOMAXPROCS(0))
		}
	}
	workers = min(workers, episodes)
	if workers > 1 && opts.BatchDecider != nil {
		return out, fmt.Errorf("sim: shared batch decider cannot run %d workers; use a WorkerFactory of batch-capable controllers", workers)
	}
	if workers > 1 && opts.EpisodeFactory == nil && opts.WorkerFactory == nil {
		return out, fmt.Errorf("sim: shared controller cannot run %d workers; set WorkerFactory or EpisodeFactory", workers)
	}

	c := &campaign{
		r: r, faultStates: faultStates, workers: workers, stream: stream, opts: opts,
		outcomes: make([]episodeOutcome, episodes),
		names:    make([]workerName, workers),
	}
	c.failAt.Store(int64(episodes))
	run := func(w int) {
		wCtrl, wInitial := ctrl, initial
		if opts.WorkerFactory != nil && opts.EpisodeFactory == nil {
			fc, fi, err := opts.WorkerFactory()
			if err != nil {
				c.fail(w, fmt.Errorf("sim: worker %d factory: %w", w, err), true)
				return
			}
			wCtrl, wInitial = fc, fi
		}
		if opts.BatchSize > 0 {
			c.runWorkerBatched(w, wCtrl, wInitial)
		} else {
			c.runWorker(w, wCtrl, wInitial)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	err := c.fold(&out)
	return out, err
}

// autoWorkers picks the worker count for Workers == 0: one worker per four
// episodes (a worker with fewer episodes spends more time starting up than
// simulating), capped at GOMAXPROCS, and never below one.
func autoWorkers(episodes, procs int) int {
	return max(1, min(episodes/4, procs))
}

// outcomeKind is what became of one campaign episode.
type outcomeKind uint8

const (
	notRun outcomeKind = iota
	completed
	abandoned
	failed
)

// episodeOutcome is one episode's slot in the campaign fold.
type episodeOutcome struct {
	kind outcomeKind
	err  error // the failure, when kind == failed
	res  EpisodeResult
}

// workerName is the controller name a worker ran under and the index of
// the first episode it ran under it.
type workerName struct {
	name string
	at   int
}

// campaign is the state one RunCampaignOpts call shares with its workers.
// Only the worker that owns an episode index writes that index's outcome
// slot, so the slots need no lock; failAt, the lowest failing index so far
// (len(outcomes) while there is none), is the one shared write.
type campaign struct {
	r           *Runner
	faultStates []int
	workers     int
	stream      *rng.Stream
	opts        CampaignOptions
	outcomes    []episodeOutcome
	names       []workerName // per worker
	failAt      atomic.Int64
}

// complete records episode i's result.
func (c *campaign) complete(i int, res EpisodeResult) {
	c.outcomes[i] = episodeOutcome{kind: completed, res: res}
}

// fail records episode i's failure: Abandoned under ContinueOnError unless
// fatal, else a campaign failure that stops every worker from starting an
// episode above i.
func (c *campaign) fail(i int, err error, fatal bool) {
	if c.opts.ContinueOnError && !fatal {
		c.outcomes[i].kind = abandoned
		return
	}
	c.outcomes[i] = episodeOutcome{kind: failed, err: err}
	for {
		cur := c.failAt.Load()
		if int64(i) >= cur || c.failAt.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// stopped reports whether episode i lies above a recorded campaign failure
// and so must not start.
func (c *campaign) stopped(i int) bool { return int64(i) > c.failAt.Load() }

// named records that worker w ran episode i under the named controller; a
// worker keeps the first name it reports.
func (c *campaign) named(w, i int, name string) {
	if c.names[w].name == "" {
		c.names[w] = workerName{name: name, at: i}
	}
}

// fold reduces the outcome slots in episode-index order into out and
// returns the campaign error, if any. The campaign is named after the
// controller of its lowest-index episode at or before the failure.
func (c *campaign) fold(out *CampaignResult) error {
	failAt := int(c.failAt.Load())
	best := -1
	for w, n := range c.names {
		if n.name != "" && n.at <= failAt && (best < 0 || n.at < c.names[best].at) {
			best = w
		}
	}
	if best >= 0 {
		out.Name = c.names[best].name
	}
	for i := range c.outcomes {
		switch o := &c.outcomes[i]; o.kind {
		case completed:
			out.add(o.res)
		case abandoned:
			out.Abandoned++
		case failed:
			return o.err
		}
	}
	return nil
}

// runWorker runs worker w's stripe of the campaign — episodes w, w+workers,
// w+2·workers, … — one at a time, recording each outcome in its slot. It
// stops at the first index above a recorded campaign failure.
func (c *campaign) runWorker(w int, ctrl controller.Controller, initial pomdp.Belief) {
	if ctrl != nil {
		c.named(w, w, ctrl.Name())
	}
	for i := w; i < len(c.outcomes) && !c.stopped(i); i += c.workers {
		ep := c.stream.SplitN("episode", i)
		fault := c.faultStates[ep.IntN(len(c.faultStates))]
		epCtrl := ctrl
		var done func(error)
		if c.opts.EpisodeFactory != nil {
			fc, cleanup, err := c.opts.EpisodeFactory(i)
			if err != nil {
				c.fail(i, fmt.Errorf("sim: episode %d factory: %w", i, err), false)
				continue
			}
			epCtrl, done = fc, cleanup
			c.named(w, i, epCtrl.Name())
		}
		res, err := c.r.RunEpisode(epCtrl, initial, fault, ep)
		if done != nil {
			done(err)
		}
		if err != nil {
			c.fail(i, fmt.Errorf("sim: episode %d (fault %s): %w",
				i, c.r.rm.POMDP.M.StateName(fault), err), false)
			continue
		}
		c.complete(i, res)
	}
}

// Row renders the campaign as a Table 1 row: cost, recovery time, residual
// time, algorithm time, actions, monitor calls (per-fault averages).
func (c *CampaignResult) Row() []string {
	return []string{
		c.Name,
		fmt.Sprintf("%.2f", c.Cost.Mean()),
		fmt.Sprintf("%.2f", c.RecoveryTime.Mean()),
		fmt.Sprintf("%.2f", c.ResidualTime.Mean()),
		fmt.Sprintf("%.3f", c.AlgoTimeMs.Mean()),
		fmt.Sprintf("%.3f", c.Actions.Mean()),
		fmt.Sprintf("%.2f", c.MonitorCalls.Mean()),
		fmt.Sprintf("%d/%d", c.Recovered, c.Episodes),
	}
}

// TableHeaders are the column headers matching Row.
func TableHeaders() []string {
	return []string{"Algorithm", "Cost", "RecoveryTime(s)", "ResidualTime(s)", "AlgoTime(ms)", "Actions", "MonitorCalls", "Recovered"}
}
