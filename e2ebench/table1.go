package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"bpomdp/internal/bounds"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
	"bpomdp/internal/stats"
)

// A table1_bounded run measures Table 1 "bounded" campaigns in the regime
// that dominates the row. Campaign m of a run is the Table 1 bounded
// campaign of seed campaignSeed(m): one shared online-improving Bounded
// controller over the seed's episode streams. The bound set grows over a
// campaign's first ~100 episodes and then stays near its final size, so the
// early episodes decide faster than the rest of the row. Set-up is followed
// by an untimed warm-up that plays each campaign's first cfg.warmEpisodes
// episodes and keeps a copy of the set they grew. A chunk then plays the
// next cfg.campaignEpisodes episodes of every campaign, each on a new
// controller over a copy of that warmed set. How large the set grows, and so
// what a decision costs, depends on the seed, so a chunk mixes several
// campaigns. Every chunk plays the same episodes from the same sets, so the
// chunks must agree bit for bit.
type chunk struct {
	results   []sim.CampaignResult
	setSizes  []int
	evictions uint64
	elapsed   time.Duration
	episodeNs []int64
	decideNs  []int64
	cost      round
}

// campaignSeed is the Table 1 seed of campaign m of a run.
func campaignSeed(cfg config, m int) uint64 { return cfg.seed*uint64(cfg.campaigns) + uint64(m) }

// campaign is one table1_bounded campaign: its set-up, seed, and the
// results and bound set of its warm-up.
type campaign struct {
	st      *stack
	seed    uint64
	warm    *bounds.Set
	warmRes sim.CampaignResult
}

// played is the outcome of playing a stretch of a campaign's episodes.
type played struct {
	res       sim.CampaignResult
	elapsed   time.Duration
	episodeNs []int64
	decideNs  []int64
	cost      round
	setSize   int
	evictions uint64
}

// newBounded returns an online-improving Bounded controller over a copy of
// set, and the copy it improves.
func newBounded(st *stack, set *bounds.Set, collect bool) (controller.Controller, *bounds.Set, error) {
	prep := *st.prep
	c, err := cloneSet(set)
	if err != nil {
		return nil, nil, err
	}
	prep.Set = c
	ctrl, err := prep.NewController(core.ControllerConfig{Depth: treeDepth, ImproveOnline: true, CollectStats: collect})
	return ctrl, c, err
}

// playEpisodes plays episodes [from, to) of the Table 1 bounded campaign of
// seed on ctrl and folds them into acc. It is sim's sequential campaign loop
// (episode i draws its fault from the seed's episode stream i, and an
// errored episode counts as abandoned), so playing [0, n) on one controller
// reproduces RunCampaignOpts with Workers: 1 bit for bit. A non-nil tracer
// records the controller layer; with timed set, each episode's CPU time is
// taken and a reference unit follows it.
func playEpisodes(st *stack, ctrl controller.Controller, seed uint64, from, to int, acc *sim.CampaignResult, tr *tracer, timed bool) (played, error) {
	timer := &decideTimer{}
	var obs ctrlObserver = timer
	if tr != nil {
		obs = keyed{t: tr}
	}
	w, err := wrapController(ctrl, obs)
	if err != nil {
		return played{}, err
	}
	var p played
	episodes := rng.New(seed).Split(episodeLabel)
	t0 := time.Now()
	for i := from; i < to; i++ {
		ep := episodes.SplitN("episode", i)
		fault := st.faults[ep.IntN(len(st.faults))]
		e0 := time.Now()
		var res sim.EpisodeResult
		run := func() { res, err = st.runner.RunEpisode(w, st.initial, fault, ep) }
		if timed {
			p.cost.timeOp(run)
		} else {
			run()
		}
		p.episodeNs = append(p.episodeNs, int64(time.Since(e0)))
		if err != nil {
			acc.Abandoned++
			continue
		}
		addEpisode(acc, res)
	}
	p.elapsed = time.Since(t0)
	p.decideNs = timer.ns
	p.cost.decisions = len(timer.ns)
	return p, nil
}

// addEpisode folds an episode into acc as sim's campaign engine does, for
// the fields the benchmark reads.
func addEpisode(acc *sim.CampaignResult, res sim.EpisodeResult) {
	acc.Episodes++
	if res.Recovered {
		acc.Recovered++
	}
	acc.Cost.Add(res.Cost)
	acc.RecoveryTime.Add(res.RecoveryTime)
	acc.ResidualTime.Add(res.ResidualTime)
	acc.Actions.Add(float64(res.Actions))
	acc.MonitorCalls.Add(float64(res.MonitorCalls))
}

// warmUp plays the first warm episodes of each campaign and keeps the bound
// set they grew. It fails on any errored episode.
func warmUp(cfg config, stacks []*stack) ([]campaign, error) {
	out := make([]campaign, len(stacks))
	for m, st := range stacks {
		seed := campaignSeed(cfg, m)
		ctrl, set, err := newBounded(st, st.prep.Set, false)
		if err != nil {
			return nil, err
		}
		var acc sim.CampaignResult
		if _, err := playEpisodes(st, ctrl, seed, 0, cfg.warmEpisodes, &acc, nil, false); err != nil {
			return nil, err
		}
		if acc.Abandoned > 0 {
			return nil, fmt.Errorf("campaign seed %d: %d warm-up episodes ended in an error", seed, acc.Abandoned)
		}
		out[m] = campaign{st: st, seed: seed, warm: set, warmRes: acc}
	}
	return out, nil
}

// playChunk plays episodes [warm, warm+measure) of one campaign from a copy
// of its warmed set, timing its cost if timed.
func playChunk(cfg config, c campaign, tr *tracer, timed bool) (played, error) {
	ctrl, set, err := newBounded(c.st, c.warm, tr != nil)
	if err != nil {
		return played{}, err
	}
	ev0 := set.Evictions()
	var acc sim.CampaignResult
	p, err := playEpisodes(c.st, ctrl, c.seed, cfg.warmEpisodes, cfg.warmEpisodes+cfg.campaignEpisodes, &acc, tr, timed)
	p.res = acc
	p.setSize = set.Size()
	p.evictions = set.Evictions() - ev0
	return p, err
}

// cloneSet copies a bound set through its JSON form, which keeps every
// plane bit for bit and in order.
func cloneSet(s *bounds.Set) (*bounds.Set, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var c bounds.Set
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// signature is what must repeat exactly across the chunks of a run.
func (c *chunk) signature() string {
	var b strings.Builder
	for i := range c.results {
		r := &c.results[i]
		fmt.Fprintf(&b, "[episodes=%d recovered=%d abandoned=%d cost=%x time=%x actions=%x monitors=%x set=%d]",
			r.Episodes, r.Recovered, r.Abandoned,
			math.Float64bits(r.Cost.Mean()), math.Float64bits(r.RecoveryTime.Mean()),
			math.Float64bits(r.Actions.Mean()), math.Float64bits(r.MonitorCalls.Mean()), c.setSizes[i])
	}
	return b.String()
}

// episodes counts the chunk's episodes, errored ones included.
func (c *chunk) episodes() (n, abandoned, unrecovered int) {
	for _, r := range c.results {
		n += r.Episodes + r.Abandoned
		abandoned += r.Abandoned
		unrecovered += r.Episodes - r.Recovered
	}
	return n, abandoned, unrecovered
}

// setupsPerChunk is how many set-ups a table1_bounded run samples after each
// chunk.
const setupsPerChunk = 2

// chunkLoop runs chunks until the time is used, at least two so their
// agreement can be checked, and samples set-ups after each chunk unless
// setup is nil. Each chunk starts from a collected heap. With timed set, the
// chunks time their cost in reference units.
func chunkLoop(cfg config, campaigns []campaign, seconds float64, tr *tracer, setup *setupTimer, timed bool) ([]chunk, error) {
	var out []chunk
	start := time.Now()
	for len(out) < 2 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		var c chunk
		for _, cp := range campaigns {
			cc, err := playChunk(cfg, cp, tr, timed)
			if err != nil {
				return nil, err
			}
			c.results = append(c.results, cc.res)
			c.setSizes = append(c.setSizes, cc.setSize)
			c.evictions += cc.evictions
			c.elapsed += cc.elapsed
			c.cost.add(cc.cost)
			c.episodeNs = append(c.episodeNs, cc.episodeNs...)
			c.decideNs = append(c.decideNs, cc.decideNs...)
		}
		out = append(out, c)
		if setup == nil {
			continue
		}
		if err := setup.sample(setupsPerChunk); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkChunks fails the run when an episode errored or two chunks of the
// same campaigns disagree.
func checkChunks(cfg config, rep *report, chunks []chunk) {
	if cfg.tamper {
		chunks[len(chunks)-1].results[0].Cost.Add(1)
	}
	want := chunks[0].signature()
	for i := range chunks {
		if _, abandoned, _ := chunks[i].episodes(); abandoned > 0 {
			rep.fail("chunk %d: %d episodes ended in an error", i, abandoned)
		}
		if got := chunks[i].signature(); got != want {
			rep.fail("chunk %d differs from chunk 0:\n  %s\n  %s", i, got, want)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(want))
	rep.notef("%d chunks of %d campaigns × episodes %d–%d agree (signature hash %016x)",
		len(chunks), cfg.campaigns, cfg.warmEpisodes, cfg.warmEpisodes+cfg.campaignEpisodes-1, h.Sum64())
}

func runTable1(cfg config, rep *report) error {
	setup := &setupTimer{build: func(i int) (*stack, error) {
		return buildStack(stackOpts{workload: wlTable1, seed: campaignSeed(cfg, i%cfg.campaigns)})
	}}
	defer setup.report(cfg, rep)
	stacks, err := setup.run(cfg.campaigns)
	if err != nil {
		return err
	}
	t0 := time.Now()
	campaigns, err := warmUp(cfg, stacks)
	if err != nil {
		return err
	}
	var warmPlanes int
	for _, c := range campaigns {
		warmPlanes += c.warm.Size()
	}
	rep.notef("warm-up: %d campaigns × %d episodes in %.1f s (untimed); mean bound set %.1f planes",
		len(campaigns), cfg.warmEpisodes, time.Since(t0).Seconds(), float64(warmPlanes)/float64(len(campaigns)))
	if !cfg.trace {
		chunks, err := chunkLoop(cfg, campaigns, cfg.seconds, nil, setup, true)
		if err != nil {
			return err
		}
		checkChunks(cfg, rep, chunks)
		reportTable1(rep, chunks, campaigns)
		var rounds []round
		for _, c := range chunks {
			rounds = append(rounds, c.cost)
		}
		reportCost(rep, rounds)
		rep.set("heap_live_mib", liveHeapMiB(), "MiB")
		runtime.KeepAlive(campaigns)
		return nil
	}

	// Traced run: half the time untraced (throughput and runtime counters),
	// half traced (layer timings); the throughput ratio is the overhead.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// The untraced half samples no set-ups, so the runtime counters around
	// it see only the chunks.
	plain, err := chunkLoop(cfg, campaigns, cfg.seconds/2, nil, nil, false)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	tr := newTracer()
	traced, err := chunkLoop(cfg, campaigns, cfg.seconds/2, tr, setup, false)
	if err != nil {
		return err
	}
	all := append(plain, traced...)
	checkChunks(cfg, rep, all)
	reportWall(rep, chunkSlices(plain))
	for _, c := range all {
		n, abandoned, _ := c.episodes()
		rep.res.Attempted += int64(n)
		rep.res.Failed += int64(abandoned)
	}

	var plainEps, plainSecs float64
	for _, c := range plain {
		n, _, _ := c.episodes()
		plainEps += float64(n)
		plainSecs += c.elapsed.Seconds()
	}
	reportRuntime(rep, &m0, &m1, plainEps, plainSecs)
	var eps, secs, epNs float64
	for _, c := range traced {
		n, _, _ := c.episodes()
		eps += float64(n)
		secs += c.elapsed.Seconds()
		for _, ns := range c.episodeNs {
			epNs += float64(ns)
		}
	}
	rep.set("trace.overhead_frac", 1-ratio(eps/secs, plainEps/plainSecs), "ratio")
	reportControllerLayer(rep, tr)
	last := traced[len(traced)-1]
	var planes int
	for _, n := range last.setSizes {
		planes += n
	}
	n, _, _ := last.episodes()
	rep.set("bounds.set_size_end", float64(planes)/float64(len(last.setSizes)), "count")
	rep.set("bounds.evictions_per_episode", float64(last.evictions)/float64(n), "count")
	rep.set("sim.self_us_per_episode", (epNs-float64(tr.ctrlNanos.Load()))/1e3/eps, "us")
	return nil
}

// chunkSlices returns one slice per chunk.
func chunkSlices(chunks []chunk) []slice {
	var out []slice
	for _, c := range chunks {
		n, _, _ := c.episodes()
		out = append(out, slice{secs: c.elapsed.Seconds(), ops: n, decisions: len(c.decideNs),
			opNs: c.episodeNs, decNs: c.decideNs})
	}
	return out
}

// reportTable1 reports the outcome metrics of an untraced run. mean_cost
// covers every episode the run played once: the warm-up and one chunk.
func reportTable1(rep *report, chunks []chunk, campaigns []campaign) {
	var attempted, failed, unrecovered int64
	for _, c := range chunks {
		n, abandoned, unrec := c.episodes()
		attempted += int64(n)
		failed += int64(abandoned)
		unrecovered += int64(unrec)
	}
	var cost float64
	var costN int
	for i, r := range chunks[0].results {
		for _, c := range []stats.Accumulator{campaigns[i].warmRes.Cost, r.Cost} {
			cost += c.Mean() * float64(c.N())
			costN += c.N()
		}
	}
	rep.set("ok_frac", 1-float64(failed+unrecovered)/float64(attempted), "ratio")
	rep.set("mean_cost", cost/float64(costN), "cost")
	rep.res.Attempted, rep.res.Failed = attempted, failed
	rep.notef("%d of %d episodes unrecovered", unrecovered, attempted)
}

// reportControllerLayer reports the controller layer's timings and the
// per-decision tree work of a traced run.
func reportControllerLayer(rep *report, tr *tracer) {
	d := tr.decide.sorted()
	rep.set("controller.decide_us_p50", us(quantile(d, 0.50)), "us")
	rep.set("controller.decide_us_p99", us(quantile(d, 0.99)), "us")
	rep.set("controller.observe_us_p50", us(quantile(tr.observe.sorted(), 0.50)), "us")
	rep.set("controller.decide_batch_us_p50", us(quantile(tr.decideBatch.sorted(), 0.50)), "us")
	n := float64(tr.decisions.Load())
	rep.set("controller.tree_nodes_per_decision", ratio(float64(tr.treeNodes.Load()), n), "count")
	rep.set("controller.leaf_evals_per_decision", ratio(float64(tr.leafEvals.Load()), n), "count")
	rep.set("controller.slab_passes_per_decision", ratio(float64(tr.slabPasses.Load()), n), "count")
	rep.notef("controller layer: %d decides, %d batch decides, %d decisions with stats",
		len(d), tr.decideBatch.len(), tr.decisions.Load())
}

// reportRuntime reports the Go runtime's allocation and GC counters over an
// untraced timed region of ops operations.
func reportRuntime(rep *report, m0, m1 *runtime.MemStats, ops, secs float64) {
	rep.set("runtime.allocs_per_episode", ratio(float64(m1.Mallocs-m0.Mallocs), ops), "count")
	rep.set("runtime.alloc_bytes_per_episode", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops), "bytes")
	rep.set("runtime.gc_pause_us_per_s", ratio(float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e3, secs), "us/s")
}

func sortedNs(ns []int64) []int64 {
	s := &samples{ns: ns}
	return s.sorted()
}
