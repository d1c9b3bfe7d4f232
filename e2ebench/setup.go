package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/server"
	"bpomdp/internal/sim"
)

// The paper's and recoverd's defaults: 10 bootstrap runs of the average
// variant at depth 2, then a depth-1 online tree.
const (
	bootstrapRuns  = 10
	bootstrapDepth = 2
	treeDepth      = 1
	// fscGap is recoverd's default -fsc-gap-threshold.
	fscGap = 1e-6
	// deploymentSeed is recoverd's default -seed: the service workloads
	// bootstrap the deployment they serve from it, and their workload seed
	// drives the traffic.
	deploymentSeed = 1
	// episodeLabel names the episode streams; it is the label the Table 1
	// campaign gives the bounded row, so seed 1 replays that row.
	episodeLabel = "campaign/bounded"
)

// phases times one set-up, phase by phase, in process CPU time.
type phases struct {
	emnBuild, prepare, bootstrap, refine, fscCompile, storeOpen, serverNew, total time.Duration
}

// stack is one workload's system, built from an empty process.
type stack struct {
	runner  *sim.Runner
	faults  []int
	prep    *core.Prepared
	initial pomdp.Belief
	fsc     *controller.FSC

	store *server.LogCheckpointer
	srv   *server.Server
	ts    *httptest.Server
	// spans receives the program's own server spans (traced service_fsc
	// with the store).
	spans *cappedBuffer

	phases phases
}

// stackOpts selects what buildStack builds.
type stackOpts struct {
	workload string
	seed     uint64
	storeDir string  // service_fsc's log store; "" serves without one
	tr       *tracer // nil builds the untraced program
}

// buildStack runs a workload's set-up: EMN compile, Prepare (the RA-Bound
// solve), Bootstrap and, where the workload uses them, RefineBounds,
// CompileFSC, the log store and server.New on a loopback listener.
func buildStack(o stackOpts) (*stack, error) {
	st := &stack{}
	start := cpuTime()
	mark := start
	lap := func(d *time.Duration) {
		now := cpuTime()
		*d = now - mark
		mark = now
	}

	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		return nil, err
	}
	lap(&st.phases.emnBuild)
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{OperatorResponseTime: emn.OperatorResponseTime})
	if err != nil {
		return nil, err
	}
	lap(&st.phases.prepare)
	if _, err := prep.Bootstrap(bootstrapRuns, controller.VariantAverage, bootstrapDepth,
		rng.New(o.seed).Split("bootstrap")); err != nil {
		return nil, err
	}
	lap(&st.phases.bootstrap)
	st.prep = prep
	st.faults = compiled.ZombieStates
	if st.runner, err = sim.NewRunner(compiled.Recovery, 0); err != nil {
		return nil, err
	}
	if st.initial, err = prep.InitialBelief(); err != nil {
		return nil, err
	}

	collect := o.tr != nil
	var handler http.Handler
	switch o.workload {
	case wlTable1:
		st.phases.total = cpuTime() - start
		return st, nil
	case wlFSC:
		if _, err := prep.RefineBounds(core.RefineConfig{}); err != nil {
			return nil, err
		}
		lap(&st.phases.refine)
		if st.fsc, err = prep.CompileFSC(core.FSCConfig{Depth: treeDepth}); err != nil {
			return nil, err
		}
		lap(&st.phases.fscCompile)
		cfg := serverConfig(prep)
		cfg.NewController = func() (controller.Controller, pomdp.Belief, error) {
			d, err := prep.NewFSCDecider(st.fsc, core.ControllerConfig{Depth: treeDepth, CollectStats: collect}, fscGap)
			if err != nil {
				return nil, nil, err
			}
			if o.tr == nil {
				return d, st.initial, nil
			}
			w, err := wrapController(d, keyed{t: o.tr, key: o.tr.newEpisodeKey()})
			return w, st.initial, err
		}
		if o.storeDir != "" {
			if st.store, err = server.NewLogCheckpointer(o.storeDir); err != nil {
				return nil, err
			}
			lap(&st.phases.storeOpen)
			cfg.Checkpointer = st.store
			if o.tr != nil {
				cfg.Checkpointer = &timedStore{inner: st.store, t: o.tr}
				st.spans = newCappedBuffer(spanBufferBytes)
				cfg.SpanTrace = st.spans
			}
		}
		if st.srv, err = server.New(cfg); err != nil {
			if st.store != nil {
				st.store.Close()
			}
			return nil, err
		}
	case wlBatch:
		cfg := serverConfig(prep)
		cfg.NewController = func() (controller.Controller, pomdp.Belief, error) {
			c, err := prep.NewController(core.ControllerConfig{Depth: treeDepth})
			return c, st.initial, err
		}
		cfg.NewBatchDecider = func() (controller.BatchDecider, error) {
			c, err := prep.NewController(core.ControllerConfig{Depth: treeDepth, CollectStats: collect})
			if err != nil || o.tr == nil {
				return c, err
			}
			w, err := wrapController(c, keyed{t: o.tr})
			if err != nil {
				return nil, err
			}
			return w.(controller.BatchDecider), nil
		}
		if st.srv, err = server.New(cfg); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	handler = st.srv
	if o.tr != nil {
		handler = &timedHandler{inner: st.srv, t: o.tr}
	}
	st.ts = httptest.NewServer(handler)
	lap(&st.phases.serverNew)
	st.phases.total = cpuTime() - start
	return st, nil
}

// serverConfig is recoverd's default service configuration.
func serverConfig(prep *core.Prepared) server.Config {
	return server.Config{
		Model:             prep.Model,
		EpisodeTTL:        30 * time.Minute,
		TombstoneTTL:      10 * time.Minute,
		ClientRetryBudget: client.DefaultRetryBudget,
	}
}

// close stops the listener, the server and the store.
func (st *stack) close() error {
	if st.ts != nil {
		st.ts.Close()
	}
	var err error
	if st.srv != nil {
		err = st.srv.Close()
	}
	if st.store != nil {
		if cerr := st.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// newClient returns one closed-loop client of the stack's server: its own
// http.Client over the shared transport, wrapped for a traced run.
func (st *stack) newClient(base *http.Transport, cs *clientSide, spans *obs.SpanWriter) (*client.Client, error) {
	var rt http.RoundTripper = base
	if cs.t != nil {
		rt = &timedTransport{base: base, cs: cs}
	}
	var opts []client.Option
	if spans != nil {
		opts = append(opts, client.WithSpans(spans, "client"))
	}
	return client.New(st.ts.URL, &http.Client{Transport: rt}, opts...)
}
