package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bpomdp/internal/client"
	"bpomdp/internal/core"
	"bpomdp/internal/obs"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
	"bpomdp/internal/tracestats"
)

// window is the measured part of a closed-loop run: operations that start
// after the warm-up and end before the deadline.
type window struct {
	from, to time.Time
}

func newWindow(seconds float64) window {
	warm := time.Duration(math.Min(1, seconds/10) * float64(time.Second))
	now := time.Now()
	return window{from: now.Add(warm), to: now.Add(warm + time.Duration(seconds*float64(time.Second)))}
}

func (w window) holds(start, end time.Time) bool { return !start.Before(w.from) && !end.After(w.to) }

// windowSliceCount is the number of slices a service window is reported in.
const windowSliceCount = 10

func (w window) seconds() float64 { return w.to.Sub(w.from).Seconds() }

// remoteEpisode is one service_fsc episode as a client saw it.
type remoteEpisode struct {
	index      int
	key        string
	res        sim.EpisodeResult
	err        error
	start, end time.Time
	decideNs   []int64
	attr       buckets // traced runs only
	calls      int
	attempts   int
	callNs     int64
}

// fscRun is the outcome of one closed-loop service_fsc phase.
type fscRun struct {
	episodes []remoteEpisode
	win      window
}

// driveFSC runs cfg.clients closed-loop clients against st's server: each
// starts an episode (StartEpisodeKeyed), drives it to its terminal decision
// with sim.Runner.RunEpisode on the remote Episode, then starts the next.
// Episode i uses the seed's episode stream i, as in the Table 1 campaign.
func driveFSC(cfg config, st *stack, seconds float64, tr *tracer, spans *obs.SpanWriter) (fscRun, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: cfg.clients}
	defer transport.CloseIdleConnections()
	win := newWindow(seconds)
	var next atomic.Int64
	perClient := make([][]remoteEpisode, cfg.clients)
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for g := 0; g < cfg.clients; g++ {
		cs := &clientSide{t: tr}
		cl, err := st.newClient(transport, cs, spans)
		if err != nil {
			return fscRun{}, err
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			episodes := rng.New(cfg.seed).Split(episodeLabel)
			for time.Now().Before(win.to) {
				i := int(next.Add(1) - 1)
				ep, err := playRemote(st, cl, cs, episodes, i, fmt.Sprintf("e2e-%d-%d", cfg.seed, i))
				if err != nil {
					errs[g] = err
					return
				}
				perClient[g] = append(perClient[g], ep)
			}
		}(g)
	}
	wg.Wait()
	out := fscRun{win: win}
	for _, eps := range perClient {
		out.episodes = append(out.episodes, eps...)
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// playRemote plays episode i of the seed's episode streams through cl under
// the given clientKey: StartEpisodeKeyed, then sim.Runner.RunEpisode on the
// remote Episode. An error returned means the benchmark could not run it;
// the episode's own failure is in ep.err.
func playRemote(st *stack, cl *client.Client, cs *clientSide, episodes *rng.Stream, i int, key string) (remoteEpisode, error) {
	ep := remoteEpisode{index: i, key: key, start: time.Now()}
	stream := episodes.SplitN("episode", i)
	fault := st.faults[stream.IntN(len(st.faults))]
	var remote *client.Episode
	cs.key = ep.key
	ep.err = cs.timeCall(func() error {
		e, err := cl.StartEpisodeKeyed(ep.key)
		remote = e
		return err
	})
	if ep.err == nil {
		w, err := wrapController(remote, cs)
		if err != nil {
			return ep, err
		}
		ep.res, ep.err = st.runner.RunEpisode(w, st.initial, fault, stream)
	}
	ep.end = time.Now()
	ep.decideNs, ep.attr, ep.calls, ep.attempts, ep.callNs = cs.decideNs, cs.ep, cs.calls, cs.attempts, cs.callNs
	cs.decideNs, cs.ep, cs.calls, cs.attempts, cs.callNs = nil, buckets{}, 0, 0, 0
	return ep, nil
}

// roundsFSC is the gated service_fsc load: one closed-loop client plays the
// seed's episodes in order, cfg.roundOps to a round, until seconds have
// passed and at least costRounds rounds are done.
func roundsFSC(cfg config, st *stack, seconds float64) (eps []remoteEpisode, rounds []round, err error) {
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	cs := &clientSide{}
	cl, err := st.newClient(transport, cs, nil)
	if err != nil {
		return nil, nil, err
	}
	episodes := rng.New(cfg.seed).Split(episodeLabel)
	start := time.Now()
	for r := 0; r < costRounds || time.Since(start).Seconds() < seconds; r++ {
		var rd round
		for k := 0; k < cfg.roundOps; k++ {
			var ep remoteEpisode
			i := r*cfg.roundOps + k
			rd.timeOp(func() {
				ep, err = playRemote(st, cl, cs, episodes, i, fmt.Sprintf("e2e-%d-%d", cfg.seed, i))
			})
			if err != nil {
				return nil, nil, err
			}
			rd.decisions += len(ep.decideNs)
			eps = append(eps, ep)
		}
		rounds = append(rounds, rd)
	}
	return eps, rounds, nil
}

// checkFSC replays every remote episode in process with the same FSC
// decider and requires the cost, steps, actions, monitor calls and
// recovered flag to match bit for bit.
func checkFSC(cfg config, rep *report, st *stack, run fscRun) error {
	local, err := st.prep.NewFSCDecider(st.fsc, core.ControllerConfig{Depth: treeDepth}, fscGap)
	if err != nil {
		return err
	}
	if cfg.tamper && len(run.episodes) > 0 {
		run.episodes[0].res.Cost += 1e-9
	}
	episodes := rng.New(cfg.seed).Split(episodeLabel)
	bad := 0
	for _, ep := range run.episodes {
		if ep.err != nil {
			bad++
			if bad <= 3 {
				rep.fail("episode %d: %v", ep.index, ep.err)
			}
			continue
		}
		stream := episodes.SplitN("episode", ep.index)
		fault := st.faults[stream.IntN(len(st.faults))]
		want, err := st.runner.RunEpisode(local, st.initial, fault, stream)
		if err != nil {
			return fmt.Errorf("in-process replay of episode %d: %w", ep.index, err)
		}
		got := ep.res
		if got.Injected != want.Injected || got.Steps != want.Steps || got.Actions != want.Actions ||
			got.MonitorCalls != want.MonitorCalls || got.Recovered != want.Recovered ||
			math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			bad++
			if bad <= 3 {
				rep.fail("episode %d: remote %+v, in-process %+v", ep.index, got, want)
			}
		}
	}
	if bad > 0 {
		rep.fail("%d of %d remote episodes differ from the in-process replay", bad, len(run.episodes))
	} else {
		rep.notef("all %d remote episodes match their in-process replay", len(run.episodes))
	}
	return nil
}

func runServiceFSC(cfg config, rep *report) error {
	setup := &setupTimer{build: func(int) (*stack, error) {
		return buildStack(stackOpts{workload: wlFSC, seed: deploymentSeed})
	}}
	defer setup.report(cfg, rep)
	stacks, err := setup.run(cfg.setupRuns)
	if err != nil {
		return err
	}
	// Serve from the last set-up; the others only measured set-up time.
	st := stacks[len(stacks)-1]
	for _, s := range stacks[:len(stacks)-1] {
		if err := s.close(); err != nil {
			return err
		}
	}
	defer st.close()

	if !cfg.trace {
		eps, rounds, err := roundsFSC(cfg, st, cfg.seconds)
		if err != nil {
			return err
		}
		if err := setup.sample(cfg.setupRuns); err != nil {
			return err
		}
		run := fscRun{episodes: eps}
		if err := checkFSC(cfg, rep, st, run); err != nil {
			return err
		}
		reportFSC(rep, run, costRounds*cfg.roundOps)
		reportCost(rep, rounds)
		rep.set("heap_live_mib", liveHeapMiB(), "MiB")
		return nil
	}

	// Traced run, in thirds: the gated path untraced (runtime counters and
	// the overhead baseline) and traced (layer timings), then the same
	// deployment with the log store added (checkpoint layer, attribution and
	// the cross-check with the program's own spans).
	third := cfg.seconds / 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	plain, err := driveFSC(cfg, st, third, nil, nil)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	reportRuntime(rep, &m0, &m1, float64(len(plain.episodes)), time.Since(t0).Seconds())
	if err := setup.sample(cfg.setupRuns); err != nil {
		return err
	}
	if err := checkFSC(cfg, rep, st, plain); err != nil {
		return err
	}
	reportWall(rep, fscSlices(plain))

	tr := newTracer()
	tst, err := buildStack(stackOpts{workload: wlFSC, seed: deploymentSeed, tr: tr})
	if err != nil {
		return err
	}
	defer tst.close()
	hits0, fall0 := tst.fsc.Hits(), tst.fsc.Fallbacks()
	traced, err := driveFSC(cfg, tst, third, tr, nil)
	if err != nil {
		return err
	}
	if err := checkFSC(cfg, rep, tst, traced); err != nil {
		return err
	}
	rep.set("trace.overhead_frac", 1-ratio(countIn(traced)/traced.win.seconds(), countIn(plain)/plain.win.seconds()), "ratio")
	reportControllerLayer(rep, tr)
	hits, fall := float64(tst.fsc.Hits()-hits0), float64(tst.fsc.Fallbacks()-fall0)
	rep.set("controller.fsc_hit_frac", ratio(hits, hits+fall), "ratio")
	rep.set("controller.fsc_nodes", float64(tst.fsc.NumNodes()), "count")
	rep.set("bounds.set_size_end", float64(tst.prep.Set.Size()), "count")
	reportServerLayers(rep, tr)
	reportClientLayer(rep, traced)

	ktr := newTracer()
	kst, err := buildStack(stackOpts{workload: wlFSC, seed: deploymentSeed, storeDir: storeDir(cfg), tr: ktr})
	if err != nil {
		return err
	}
	defer kst.close()
	rep.set("checkpoint.open_s", kst.phases.storeOpen.Seconds(), "s")
	clientSpans := newCappedBuffer(spanBufferBytes)
	comp0 := kst.store.Compactions()
	stored, err := driveFSC(cfg, kst, third, ktr, obs.NewSpanWriter(clientSpans))
	if err != nil {
		return err
	}
	if err := checkFSC(cfg, rep, kst, stored); err != nil {
		return err
	}
	for _, run := range []fscRun{plain, traced, stored} {
		for _, ep := range run.episodes {
			rep.res.Attempted++
			if ep.err != nil {
				rep.res.Failed++
			}
		}
	}
	n := float64(len(stored.episodes))
	saves := ktr.save.sorted()
	rep.set("checkpoint.save_us_p50", us(quantile(saves, 0.50)), "us")
	rep.set("checkpoint.save_us_p99", us(quantile(saves, 0.99)), "us")
	rep.set("checkpoint.saves_per_episode", float64(len(saves))/n, "count")
	rep.set("checkpoint.tombstone_us_p50", us(quantile(ktr.tomb.sorted(), 0.50)), "us")
	rep.set("checkpoint.delete_us_p50", us(quantile(ktr.del.sorted(), 0.50)), "us")
	rep.set("checkpoint.bytes_per_episode", ktr.storedBytes()/n, "bytes")
	rep.set("checkpoint.compactions", float64(kst.store.Compactions()-comp0), "count")
	rep.notef("checkpoint layer: %d saves, %d tombstones, %d deletes over %d episodes",
		len(saves), ktr.tomb.len(), ktr.del.len(), len(stored.episodes))
	return crossCheck(rep, kst, stored, clientSpans)
}

// reportClientLayer reports the simulator and client counts of a traced
// service_fsc phase.
func reportClientLayer(rep *report, run fscRun) {
	var calls, attempts int
	var runNs, callNs float64
	for _, ep := range run.episodes {
		calls += ep.calls
		attempts += ep.attempts
		runNs += float64(ep.end.Sub(ep.start))
		callNs += float64(ep.callNs)
	}
	n := float64(len(run.episodes))
	rep.set("sim.self_us_per_episode", (runNs-callNs)/1e3/n, "us")
	rep.set("http.requests_per_episode", float64(attempts)/n, "count")
	rep.set("client.attempts_per_call", ratio(float64(attempts), float64(calls)), "count")
}

// countIn counts the episodes inside a run's window.
func countIn(run fscRun) float64 {
	n := 0
	for _, ep := range run.episodes {
		if run.win.holds(ep.start, ep.end) {
			n++
		}
	}
	return float64(n)
}

// fscSlices splits a service_fsc run into its marked slices; an episode
// belongs to the slice it ended in.
func fscSlices(run fscRun) []slice {
	slices := windowSlices(run.win)
	for _, ep := range run.episodes {
		if ep.err != nil {
			continue
		}
		if s := sliceOf(run.win, slices, ep.start, ep.end); s != nil {
			s.ops++
			s.decisions += len(ep.decideNs)
			s.opNs = append(s.opNs, int64(ep.end.Sub(ep.start)))
			s.decNs = append(s.decNs, ep.decideNs...)
		}
	}
	return slices
}

// reportFSC reports the outcome metrics of an untraced service_fsc run.
func reportFSC(rep *report, run fscRun, costEpisodes int) {
	var attempted, failed, unrecovered, done int64
	var cost float64
	for i, ep := range run.episodes {
		attempted++
		if ep.err != nil {
			failed++
			continue
		}
		if !ep.res.Recovered {
			unrecovered++
		}
		if i < costEpisodes {
			cost += ep.res.Cost
			done++
		}
	}
	rep.set("ok_frac", 1-float64(failed+unrecovered)/float64(attempted), "ratio")
	rep.set("mean_cost", ratio(cost, float64(done)), "cost")
	rep.res.Attempted, rep.res.Failed = attempted, failed
	rep.notef("%d episodes played, %d unrecovered; mean_cost over the first %d", attempted, unrecovered, done)
}

// reportServerLayers reports the handler, network and client timings of a
// traced service run.
func reportServerLayers(rep *report, tr *tracer) {
	for _, r := range []string{"start", "decision", "observation", "batch"} {
		rep.set("server.handler_us_p50."+r, us(quantile(tr.handler[r].sorted(), 0.50)), "us")
	}
	rep.set("server.self_us_p50", us(quantile(tr.serverSelf.sorted(), 0.50)), "us")
	rep.set("net.roundtrip_us_p50", us(quantile(tr.net.sorted(), 0.50)), "us")
	rep.set("client.self_us_p50", us(quantile(tr.clientSelf.sorted(), 0.50)), "us")
	if u := tr.unmatched.Load(); u > 0 {
		rep.fail("%d round trips found no handler timing", u)
	}
	rep.notef("server layer: %d client calls, %d exchanges", tr.serverSelf.len(), tr.exchange.len())
}

// xcheckBound is the largest relative disagreement between the outside-in
// attribution and the program's own span attribution that is not flagged;
// it is the benchmark's bound on its time metrics.
const xcheckBound = 0.25

// crossCheck reports the outside-in attribution of the traced episodes next
// to the program's own span attribution (server.Config.SpanTrace and
// client.WithSpans, stitched by tracestats) over the same episodes, and flags
// a disagreement beyond xcheckBound in the wall, the checkpoint time, the
// whole server time, or the wire time (network plus client). Server self
// time is not compared alone: the program's handler spans start inside the
// mux and end before the span write, while the handler wrapper sees both.
func crossCheck(rep *report, st *stack, run fscRun, clientSpans *cappedBuffer) error {
	srvBytes, srvFull := st.spans.contents()
	cliBytes, cliFull := clientSpans.contents()
	cut := run.win.to
	for _, full := range []time.Time{srvFull, cliFull} {
		if !full.IsZero() && full.Before(cut) {
			cut = full
		}
	}
	spans, err := obs.DecodeSpans(bytes.NewReader(append(srvBytes, cliBytes...)))
	if err != nil {
		return fmt.Errorf("decode program spans: %w", err)
	}
	byKey := map[string]*tracestats.Timeline{}
	for _, tl := range tracestats.Stitch(spans) {
		byKey[tl.TraceID] = tl
	}

	var mine, all buckets
	var inWin int
	var picked []*tracestats.Timeline
	for _, ep := range run.episodes {
		if !run.win.holds(ep.start, ep.end) {
			continue
		}
		inWin++
		all.add(ep.attr)
		if sum := ep.attr.client + ep.attr.network + ep.attr.serverSelf + ep.attr.controller + ep.attr.checkpoint; sum != ep.attr.wall {
			rep.fail("episode %d: buckets sum to %d ns, wall is %d ns", ep.index, sum, ep.attr.wall)
		}
		for name, v := range map[string]int64{"client": ep.attr.client, "network": ep.attr.network,
			"server": ep.attr.serverSelf, "controller": ep.attr.controller, "checkpoint": ep.attr.checkpoint} {
			if v < 0 {
				rep.fail("episode %d: negative %s bucket %d ns", ep.index, name, v)
			}
		}
		if tl := byKey[ep.key]; tl != nil && ep.end.Before(cut) {
			mine.add(ep.attr)
			picked = append(picked, tl)
		}
	}
	if inWin == 0 {
		return errNoWork
	}
	per := func(ns int64, n int) float64 { return float64(ns) / 1e3 / float64(n) }
	rep.set("attribution.wall_us_per_episode", per(all.wall, inWin), "us")
	rep.set("attribution.client_us_per_episode", per(all.client, inWin), "us")
	rep.set("attribution.network_us_per_episode", per(all.network, inWin), "us")
	rep.set("attribution.server_self_us_per_episode", per(all.serverSelf, inWin), "us")
	rep.set("attribution.controller_us_per_episode", per(all.controller, inWin), "us")
	rep.set("attribution.checkpoint_us_per_episode", per(all.checkpoint, inWin), "us")

	n := len(picked)
	rep.set("tracer.episodes", float64(n), "count")
	if n == 0 {
		rep.notef("cross-check: no episode has complete program spans")
		return nil
	}
	sum := tracestats.Summarize(picked)
	t := sum.Totals
	server := t.DecideNanos + t.ObserveNanos + t.StartNanos + t.OtherServerNanos
	client := t.ClientNanos + t.RetryBackoffNanos
	rep.set("tracer.wall_us_per_episode", per(sum.TotalWallNanos, n), "us")
	rep.set("tracer.client_us_per_episode", per(client, n), "us")
	rep.set("tracer.network_us_per_episode", per(t.NetworkNanos, n), "us")
	rep.set("tracer.server_us_per_episode", per(server, n), "us")
	rep.set("tracer.checkpoint_us_per_episode", per(t.CheckpointNanos, n), "us")

	pairs := []struct {
		name          string
		outside, prog int64
	}{
		{"wall", mine.wall, sum.TotalWallNanos},
		{"checkpoint", mine.checkpoint, t.CheckpointNanos},
		{"server", mine.serverSelf + mine.controller + mine.checkpoint, server + t.CheckpointNanos},
		{"network+client", mine.network + mine.client, t.NetworkNanos + client},
	}
	worst, flagged := 0.0, 0
	for _, p := range pairs {
		d := math.Abs(float64(p.outside-p.prog)) / math.Max(float64(p.outside), float64(p.prog))
		worst = math.Max(worst, d)
		if d > xcheckBound {
			flagged++
			rep.notef("cross-check: %s disagrees by %.1f%% (outside-in %.1f us, program spans %.1f us per episode)",
				p.name, 100*d, per(p.outside, n), per(p.prog, n))
		}
	}
	rep.set("tracer.max_disagreement", worst, "ratio")
	rep.set("tracer.disagreements", float64(flagged), "count")
	rep.notef("cross-check over %d episodes with complete program spans (%d orphans)", n, sum.Orphans)
	return nil
}
