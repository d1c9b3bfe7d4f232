package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

// beliefPool records the belief at every decision of the episodes it
// observes, repeats included, so requests sample beliefs as often as
// recovery visits them.
type beliefPool struct {
	beliefs []pomdp.Belief
}

func (p *beliefPool) decided(_ time.Duration, c controller.Controller) {
	p.beliefs = append(p.beliefs, c.Belief())
}
func (p *beliefPool) decidedBatch(time.Duration, controller.Controller, []pomdp.Belief) {}
func (p *beliefPool) observed(time.Duration)                                            {}
func (p *beliefPool) reset(time.Duration)                                               {}

// batchInputs records the decision beliefs of cfg.poolEpisodes seeded EMN
// zombie episodes driven in process over the frozen bootstrapped bounds the
// server decides with, and computes the expected decision at each with an
// in-process DecideBatch.
func batchInputs(cfg config, st *stack) ([]pomdp.Belief, []controller.Decision, error) {
	pool := &beliefPool{}
	ctrl, err := st.prep.NewController(core.ControllerConfig{Depth: treeDepth})
	if err != nil {
		return nil, nil, err
	}
	w, err := wrapController(ctrl, pool)
	if err != nil {
		return nil, nil, err
	}
	episodes := rng.New(cfg.seed).Split("batch/beliefs")
	for i := 0; i < cfg.poolEpisodes; i++ {
		stream := episodes.SplitN("episode", i)
		fault := st.faults[stream.IntN(len(st.faults))]
		if _, err := st.runner.RunEpisode(w, st.initial, fault, stream); err != nil {
			return nil, nil, fmt.Errorf("belief pool episode %d: %w", i, err)
		}
	}
	want := make([]controller.Decision, len(pool.beliefs))
	for lo := 0; lo < len(want); lo += cfg.batchSize {
		hi := min(lo+cfg.batchSize, len(want))
		if err := ctrl.DecideBatch(pool.beliefs[lo:hi], want[lo:hi]); err != nil {
			return nil, nil, err
		}
	}
	return pool.beliefs, want, nil
}

// batchRequest is one POST /v1/decide/batch as a client saw it, checked on
// arrival so the run keeps no decisions.
type batchRequest struct {
	index      int
	err        error
	start, end time.Time
	decided    int
	cost       float64 // sum of −Value over the decisions
	mismatch   string  // first decision that differs from the in-process one
}

type batchRun struct {
	requests []batchRequest
	win      window
}

// batchClients is the number of closed-loop service_batch clients. With two
// on two cores, request latencies fell in two modes (about 1.3 ms and
// 2.0–2.5 ms) in near-equal shares, so the p50 jumped between them from one
// slice of a run to the next. With one, about four fifths fall in the upper
// mode and the p50 holds still.
const batchClients = 1

// driveBatch runs batchClients closed-loop clients, each sending requests of
// cfg.batchSize pooled beliefs; request j's beliefs derive from the seed's
// request stream j. Every returned decision must be bit-identical to want,
// the in-process DecideBatch at the same belief.
func driveBatch(cfg config, st *stack, pool []pomdp.Belief, want []controller.Decision, seconds float64, tr *tracer) (batchRun, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: batchClients}
	defer transport.CloseIdleConnections()
	win := newWindow(seconds)
	var next atomic.Int64
	perClient := make([][]batchRequest, batchClients)
	var wg sync.WaitGroup
	for g := 0; g < batchClients; g++ {
		cs := &clientSide{t: tr}
		cl, err := st.newClient(transport, cs, nil)
		if err != nil {
			return batchRun{}, err
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := newBatcher(cfg, cl, cs, pool, want)
			for time.Now().Before(win.to) {
				perClient[g] = append(perClient[g], b.send(int(next.Add(1)-1)))
			}
		}(g)
	}
	wg.Wait()
	out := batchRun{win: win}
	for _, reqs := range perClient {
		out.requests = append(out.requests, reqs...)
	}
	return out, nil
}

// batcher sends one client's batch requests.
type batcher struct {
	cfg      config
	cl       *client.Client
	cs       *clientSide
	pool     []pomdp.Belief
	want     []controller.Decision
	requests *rng.Stream
	beliefs  []pomdp.Belief
	picks    []int
}

func newBatcher(cfg config, cl *client.Client, cs *clientSide, pool []pomdp.Belief, want []controller.Decision) *batcher {
	return &batcher{cfg: cfg, cl: cl, cs: cs, pool: pool, want: want,
		requests: rng.New(cfg.seed).Split("batch/requests"),
		beliefs:  make([]pomdp.Belief, cfg.batchSize), picks: make([]int, cfg.batchSize)}
}

// send sends request j, whose beliefs derive from the seed's request stream
// j, and checks every returned decision against the in-process one.
func (b *batcher) send(j int) batchRequest {
	stream := b.requests.SplitN("request", j)
	req := batchRequest{index: j}
	for k := range b.picks {
		b.picks[k] = stream.IntN(len(b.pool))
		b.beliefs[k] = b.pool[b.picks[k]]
	}
	b.cs.key = fingerprint(b.beliefs)
	var got []controller.Decision
	req.start = time.Now()
	req.err = b.cs.timeCall(func() error {
		var err error
		got, err = b.cl.DecideBatch(b.beliefs)
		return err
	})
	req.end = time.Now()
	if b.cfg.tamper && j == 0 && len(got) > 0 {
		got[0].Value = math.Nextafter(got[0].Value, 0)
	}
	for k, d := range got {
		req.decided++
		req.cost -= d.Value
		w := b.want[b.picks[k]]
		if req.mismatch == "" && (d.Action != w.Action || d.Terminate != w.Terminate ||
			math.Float64bits(d.Value) != math.Float64bits(w.Value)) {
			req.mismatch = fmt.Sprintf("belief %d: remote %+v, in-process %+v", k, d, w)
		}
	}
	return req
}

// roundsBatch is the gated service_batch load: one closed-loop client sends
// the seed's requests in order, cfg.roundOps to a round, until seconds have
// passed and at least costRounds rounds are done.
func roundsBatch(cfg config, st *stack, pool []pomdp.Belief, want []controller.Decision, seconds float64) (reqs []batchRequest, rounds []round, err error) {
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	cs := &clientSide{}
	cl, err := st.newClient(transport, cs, nil)
	if err != nil {
		return nil, nil, err
	}
	b := newBatcher(cfg, cl, cs, pool, want)
	start := time.Now()
	for r := 0; r < costRounds || time.Since(start).Seconds() < seconds; r++ {
		var rd round
		for k := 0; k < cfg.roundOps; k++ {
			var req batchRequest
			rd.timeOp(func() { req = b.send(r*cfg.roundOps + k) })
			rd.decisions += req.decided
			reqs = append(reqs, req)
		}
		rounds = append(rounds, rd)
	}
	return reqs, rounds, nil
}

// checkBatch fails the run on any failed request or mismatched decision.
func checkBatch(rep *report, run batchRun) {
	bad, decided := 0, 0
	for _, req := range run.requests {
		decided += req.decided
		switch {
		case req.err != nil:
			bad++
			if bad <= 3 {
				rep.fail("request %d: %v", req.index, req.err)
			}
		case req.mismatch != "":
			bad++
			if bad <= 3 {
				rep.fail("request %d %s", req.index, req.mismatch)
			}
		}
	}
	if bad > 0 {
		rep.fail("%d of %d requests failed or returned a decision that differs from the in-process DecideBatch", bad, len(run.requests))
	} else {
		rep.notef("all %d remote decisions match the in-process DecideBatch", decided)
	}
}

func runServiceBatch(cfg config, rep *report) error {
	setup := &setupTimer{build: func(int) (*stack, error) {
		return buildStack(stackOpts{workload: wlBatch, seed: deploymentSeed})
	}}
	defer setup.report(cfg, rep)
	stacks, err := setup.run(cfg.setupRuns)
	if err != nil {
		return err
	}
	st := stacks[len(stacks)-1]
	for _, s := range stacks[:len(stacks)-1] {
		if err := s.close(); err != nil {
			return err
		}
	}
	defer st.close()
	pool, want, err := batchInputs(cfg, st)
	if err != nil {
		return err
	}
	rep.notef("belief pool: %d decision beliefs from %d episodes", len(pool), cfg.poolEpisodes)

	if !cfg.trace {
		reqs, rounds, err := roundsBatch(cfg, st, pool, want, cfg.seconds)
		if err != nil {
			return err
		}
		if err := setup.sample(cfg.setupRuns); err != nil {
			return err
		}
		run := batchRun{requests: reqs}
		checkBatch(rep, run)
		reportBatch(rep, run, costRounds*cfg.roundOps)
		reportCost(rep, rounds)
		// pool and want are dead here, so the live heap is the deployment's.
		rep.set("heap_live_mib", liveHeapMiB(), "MiB")
		return nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	plain, err := driveBatch(cfg, st, pool, want, cfg.seconds/2, nil)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	reportRuntime(rep, &m0, &m1, float64(len(plain.requests)), time.Since(t0).Seconds())
	if err := setup.sample(cfg.setupRuns); err != nil {
		return err
	}
	checkBatch(rep, plain)
	reportWall(rep, batchSlices(plain))

	tr := newTracer()
	tst, err := buildStack(stackOpts{workload: wlBatch, seed: deploymentSeed, tr: tr})
	if err != nil {
		return err
	}
	defer tst.close()
	traced, err := driveBatch(cfg, tst, pool, want, cfg.seconds/2, tr)
	if err != nil {
		return err
	}
	checkBatch(rep, traced)
	for _, req := range append(plain.requests, traced.requests...) {
		rep.res.Attempted++
		if req.err != nil {
			rep.res.Failed++
		}
	}
	rep.set("trace.overhead_frac", 1-ratio(batchCountIn(traced)/traced.win.seconds(), batchCountIn(plain)/plain.win.seconds()), "ratio")
	reportControllerLayer(rep, tr)
	rep.set("bounds.set_size_end", float64(tst.prep.Set.Size()), "count")
	reportServerLayers(rep, tr)
	rep.set("http.requests_per_episode", ratio(float64(tr.exchange.len()), float64(len(traced.requests))), "count")
	rep.set("client.attempts_per_call", ratio(float64(tr.exchange.len()), float64(tr.clientSelf.len())), "count")
	return nil
}

func batchCountIn(run batchRun) float64 {
	n := 0
	for _, req := range run.requests {
		if run.win.holds(req.start, req.end) {
			n++
		}
	}
	return float64(n)
}

// batchSlices splits a service_batch run into its marked slices. An
// operation is one batch request: the episode figures count requests, and
// the decision figures count beliefs decided, with the request's latency as
// each decision's.
func batchSlices(run batchRun) []slice {
	slices := windowSlices(run.win)
	for _, req := range run.requests {
		if req.err != nil {
			continue
		}
		if s := sliceOf(run.win, slices, req.start, req.end); s != nil {
			s.ops++
			s.decisions += req.decided
			s.opNs = append(s.opNs, int64(req.end.Sub(req.start)))
			s.decNs = append(s.decNs, int64(req.end.Sub(req.start)))
		}
	}
	return slices
}

// reportBatch reports the outcome metrics of an untraced service_batch run;
// mean_cost is the mean bound-backed cost-to-go (−Value) of the decided
// beliefs.
func reportBatch(rep *report, run batchRun, costRequests int) {
	var attempted, failed, decided int64
	var cost float64
	for i, req := range run.requests {
		attempted++
		if req.err != nil {
			failed++
			continue
		}
		if i < costRequests {
			cost += req.cost
			decided += int64(req.decided)
		}
	}
	rep.set("ok_frac", 1-float64(failed)/float64(attempted), "ratio")
	rep.set("mean_cost", ratio(cost, float64(decided)), "cost")
	rep.res.Attempted, rep.res.Failed = attempted, failed
	rep.notef("%d requests sent; mean_cost over the first %d", attempted, min(int(attempted), costRequests))
}
