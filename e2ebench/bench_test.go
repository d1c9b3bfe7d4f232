package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

// testConfig is a short run of workload.
func testConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 7
	cfg.seconds = 1
	cfg.trace = trace
	cfg.workDir = t.TempDir()
	cfg.batchSize = 8
	cfg.poolEpisodes = 20
	cfg.campaigns = 2
	cfg.warmEpisodes = 30
	cfg.campaignEpisodes = 20
	cfg.setupRuns = 2
	cfg.roundOps = 8
	return cfg
}

var workloads = []string{wlTable1, wlFSC, wlBatch}

// TestTable1BoundedRow replays the committed Table 1 "bounded" row: seed 1,
// 10,000 zombie-fault injections.
func TestTable1BoundedRow(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-episode campaign")
	}
	data, err := os.ReadFile("../results_table1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 8 && f[0] == "bounded" {
			want = f
		}
	}
	if want == nil {
		t.Fatal("no bounded row in results_table1.txt")
	}
	st, err := buildStack(stackOpts{workload: wlTable1, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _, err := newBounded(st, st.prep.Set, false)
	if err != nil {
		t.Fatal(err)
	}
	var res sim.CampaignResult
	if _, err := playEpisodes(st, ctrl, 1, 0, 10000, &res, nil, false); err != nil {
		t.Fatal(err)
	}
	cost := fmt.Sprintf("%.2f", res.Cost.Mean())
	recovered := fmt.Sprintf("%d/%d", res.Recovered, res.Episodes)
	if cost != want[1] || recovered != want[7] {
		t.Fatalf("bounded row: cost %s recovered %s, results_table1.txt has cost %s recovered %s",
			cost, recovered, want[1], want[7])
	}
}

// TestWarmedChunkContinuesCampaign requires a warm-up followed by a chunk,
// played on a new controller over a copy of the warmed set, to be exactly
// the Table 1 campaign engine's run over the same episodes.
func TestWarmedChunkContinuesCampaign(t *testing.T) {
	cfg := testConfig(t, wlTable1, false)
	var stacks []*stack
	for m := 0; m < cfg.campaigns; m++ {
		st, err := buildStack(stackOpts{workload: wlTable1, seed: campaignSeed(cfg, m)})
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, st)
	}
	cps, err := warmUp(cfg, stacks)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.warmEpisodes + cfg.campaignEpisodes
	for _, cp := range cps {
		st := cp.st
		ctrl, wantSet, err := newBounded(st, st.prep.Set, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.runner.RunCampaignOpts(ctrl, st.initial, st.faults, n,
			rng.New(cp.seed).Split(episodeLabel), sim.CampaignOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The warm-up's episodes, then the chunk's on a new controller over
		// the given set, into one accumulator.
		continued := func(set *bounds.Set) chunk {
			var got sim.CampaignResult
			var last *bounds.Set
			for _, span := range [][3]int{{0, cfg.warmEpisodes}, {cfg.warmEpisodes, n}} {
				from := set
				if span[0] == 0 {
					from = st.prep.Set
				}
				ctrl, c, err := newBounded(st, from, false)
				if err != nil {
					t.Fatal(err)
				}
				last = c
				if _, err := playEpisodes(st, ctrl, cp.seed, span[0], span[1], &got, nil, false); err != nil {
					t.Fatal(err)
				}
			}
			return chunk{results: []sim.CampaignResult{got}, setSizes: []int{last.Size()}}
		}
		w := chunk{results: []sim.CampaignResult{want}, setSizes: []int{wantSet.Size()}}
		if g := continued(cp.warm); g.signature() != w.signature() {
			t.Fatalf("seed %d: warmed chunk %s, campaign %s", cp.seed, g.signature(), w.signature())
		}
		// Without the warmed set the chunk ends on another bound set.
		if g := continued(st.prep.Set); g.signature() == w.signature() {
			t.Fatalf("seed %d: the chunk does not depend on its warm-up", cp.seed)
		}
	}
}

// declared reads the metric names and units BENCHMARK.json lists.
func declared(t *testing.T, key string) map[string]string {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestRunReportsDeclaredMetrics runs every workload untraced and traced and
// requires the checks to pass, the metrics to be exactly the ones
// BENCHMARK.json declares, and every metric that applies to the workload to
// be non-zero unless it counts rare events.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			key, defs := "end_to_end", endToEnd
			if trace {
				key, defs = "per_layer", perLayer
			}
			t.Run(fmt.Sprintf("%s/%s", wl, key), func(t *testing.T) {
				want := declared(t, key)
				if len(defs) != len(want) {
					t.Fatalf("main.go declares %d metrics, BENCHMARK.json %d", len(defs), len(want))
				}
				for _, m := range defs {
					if want[m.name] != m.unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json has %q", m.name, m.unit, want[m.name])
					}
				}
				rep, err := run(testConfig(t, wl, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.res.Correct {
					t.Fatalf("checks failed: %s", strings.Join(rep.notes, "\n"))
				}
				if len(rep.res.Metrics) != len(defs) {
					t.Errorf("reported %d metrics, want %d", len(rep.res.Metrics), len(defs))
				}
				for _, m := range defs {
					if v := rep.res.Metrics[m.name].Value; m.appliesTo(wl) && !m.mayBeZero && v == 0 {
						t.Errorf("metric %s applies to %s but reads 0", m.name, wl)
					}
				}
				if rep.res.Attempted < 1 {
					t.Errorf("attempted %d", rep.res.Attempted)
				}
			})
		}
	}
}

// TestTamperedResultFails corrupts one result of every workload and
// requires the output check to catch it.
func TestTamperedResultFails(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg := testConfig(t, wl, false)
			cfg.tamper = true
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.res.Correct {
				t.Fatal("a tampered result passed the output check")
			}
		})
	}
}

// tierLog records the serving tier after every decision of a controller.
type tierLog struct {
	controller.Controller
	tiers []string
}

func (l *tierLog) Decide() (controller.Decision, error) {
	d, err := l.Controller.Decide()
	l.tiers = append(l.tiers, l.Controller.(controller.TierSource).LastTier())
	return d, err
}

// TestWrappersPreserveDecisionsAndTiers drives the same episodes through
// wrapped and unwrapped controllers: a tiered FSC decider over unrefined
// bounds (so both tiers serve) and an online-improving Bounded controller.
// Results, decision stats and tiers must be identical.
func TestWrappersPreserveDecisionsAndTiers(t *testing.T) {
	st, err := buildStack(stackOpts{workload: wlTable1, seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fsc, err := st.prep.CompileFSC(core.FSCConfig{Depth: treeDepth})
	if err != nil {
		t.Fatal(err)
	}
	build := map[string]func() (controller.Controller, error){
		"fsc": func() (controller.Controller, error) {
			return st.prep.NewFSCDecider(fsc, core.ControllerConfig{Depth: treeDepth, CollectStats: true}, fscGap)
		},
		"bounded": func() (controller.Controller, error) {
			prep := *st.prep
			set, err := cloneSet(st.prep.Set)
			if err != nil {
				return nil, err
			}
			prep.Set = set
			return prep.NewController(core.ControllerConfig{Depth: treeDepth, ImproveOnline: true, CollectStats: true})
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			var runs [2][]sim.EpisodeResult
			var tiers [2][]string
			for i, wrap := range []bool{false, true} {
				c, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					if c, err = wrapController(c, keyed{t: newTracer()}); err != nil {
						t.Fatal(err)
					}
					assertSameInterfaces(t, c)
				}
				log := &tierLog{Controller: c}
				// sim reads decision stats through StatsSource; the log
				// forwards it so both runs collect them.
				ctrl := struct {
					*tierLog
					controller.StatsSource
				}{log, c.(controller.StatsSource)}
				stream := rng.New(3).Split(episodeLabel)
				for ep := 0; ep < 200; ep++ {
					s := stream.SplitN("episode", ep)
					res, err := st.runner.RunEpisode(ctrl, st.initial, st.faults[s.IntN(len(st.faults))], s)
					if err != nil {
						t.Fatal(err)
					}
					res.AlgoTime = 0
					runs[i] = append(runs[i], res)
				}
				tiers[i] = log.tiers
			}
			if fmt.Sprint(runs[0]) != fmt.Sprint(runs[1]) {
				t.Fatal("wrapped and unwrapped episode results differ")
			}
			if strings.Join(tiers[0], ",") != strings.Join(tiers[1], ",") {
				t.Fatal("wrapped and unwrapped tiers differ")
			}
			if name == "fsc" && !(strings.Contains(strings.Join(tiers[0], ","), controller.TierFSC) &&
				strings.Contains(strings.Join(tiers[0], ","), controller.TierTree)) {
				t.Fatalf("want both tiers exercised, got %v", tiers[0][:10])
			}
		})
	}
}

// assertSameInterfaces checks that the wrapper c implements exactly the
// optional interfaces of the value it wraps.
func assertSameInterfaces(t *testing.T, c controller.Controller) {
	t.Helper()
	inner := c.(*timedDecider).full
	check := func(name string, a, b bool) {
		if a != b {
			t.Errorf("%s: wrapper %v, wrapped %v", name, a, b)
		}
	}
	_, a := c.(controller.BatchDecider)
	_, b := inner.(controller.BatchDecider)
	check("BatchDecider", a, b)
	_, a = c.(controller.TierSource)
	_, b = inner.(controller.TierSource)
	check("TierSource", a, b)
	_, a = c.(controller.StatsSource)
	_, b = inner.(controller.StatsSource)
	check("StatsSource", a, b)
	_, a = c.(controller.BatchStatsSource)
	_, b = inner.(controller.BatchStatsSource)
	check("BatchStatsSource", a, b)
	_, a = c.(controller.StateAware)
	_, b = inner.(controller.StateAware)
	check("StateAware", a, b)
}

// TestWrapControllerInterfaceSets covers the interface sets the wrapper
// mirrors and refuses.
func TestWrapControllerInterfaceSets(t *testing.T) {
	obs := &decideTimer{}
	remote := &client.Episode{}
	w, err := wrapController(remote, obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(controller.TierSource); ok {
		t.Error("wrapper of a remote episode claims TierSource")
	}
	if _, ok := w.(controller.StatsSource); ok {
		t.Error("wrapper of a remote episode claims StatsSource")
	}
	st, err := buildStack(stackOpts{workload: wlTable1, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := controller.NewOracle(st.prep.Source.POMDP, st.prep.Source.NullStates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapController(oracle, obs); err == nil {
		t.Error("wrapping a StateAware controller should fail")
	}
}
