// Command e2ebench is the repository benchmark. It drives the paper's
// Table 1 campaign and the recoverd service path through the program's
// public entry points, checks every output, and prints one JSON result line.
//
//	bash e2ebench/run.sh --workload service_fsc --seed 3 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Workload names.
const (
	wlTable1 = "table1_bounded"
	wlFSC    = "service_fsc"
	wlBatch  = "service_batch"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string

	// Load shape; tests shrink these.
	clients          int // closed-loop client goroutines of service_fsc
	batchSize        int // beliefs per service_batch request
	poolEpisodes     int // episodes whose decision beliefs service_batch samples
	campaigns        int // Table 1 campaigns per table1_bounded chunk
	warmEpisodes     int // untimed warm-up episodes per campaign
	campaignEpisodes int // measured episodes per campaign and chunk
	setupRuns        int // set-ups at the start of a service run, and again after its window
	roundOps         int // episodes or batch requests per round of a gated service run

	// tamper corrupts one result before the output check (tests only).
	tamper bool
}

func defaultConfig() config {
	return config{
		clients:          2,
		batchSize:        64,
		poolEpisodes:     6000,
		campaigns:        48,
		warmEpisodes:     100,
		campaignEpisodes: 42,
		setupRuns:        9,
		roundOps:         512,
	}
}

// metricDef declares one metric as BENCHMARK.json lists it, and the
// workloads it applies to: t (table1_bounded), f (service_fsc) and
// b (service_batch). A workload must report every metric that applies to
// it; the others read 0.
type metricDef struct {
	name, unit string
	on         string
	// mayBeZero marks a count of rare events, or a difference, that a
	// healthy run can report as 0.
	mayBeZero bool
}

func (m metricDef) appliesTo(workload string) bool {
	return strings.Contains(m.on, map[string]string{wlTable1: "t", wlFSC: "f", wlBatch: "b"}[workload])
}

var (
	endToEnd = []metricDef{
		{name: "cpu_per_episode", unit: "ref", on: "tfb"},
		{name: "cpu_per_decision", unit: "ref", on: "tfb"},
		{name: "ok_frac", unit: "ratio", on: "tfb"},
		{name: "mean_cost", unit: "cost", on: "tfb"},
		{name: "setup_s", unit: "s", on: "tfb"},
		{name: "heap_live_mib", unit: "MiB", on: "tfb"},
	}
	perLayer = []metricDef{
		{name: "wall.episodes_per_s", unit: "1/s", on: "tfb"},
		{name: "wall.decisions_per_s", unit: "1/s", on: "tfb"},
		{name: "wall.decision_p50_us", unit: "us", on: "tfb"},
		{name: "wall.decision_p90_us", unit: "us", on: "tfb"},
		{name: "wall.episode_p50_ms", unit: "ms", on: "tfb"},
		{name: "wall.episode_p90_ms", unit: "ms", on: "tfb"},
		{name: "runtime.peak_rss_mb", unit: "MiB", on: "tfb"},
		{name: "controller.decide_us_p50", unit: "us", on: "tf"},
		{name: "controller.decide_us_p99", unit: "us", on: "tf"},
		{name: "controller.observe_us_p50", unit: "us", on: "tf"},
		{name: "controller.tree_nodes_per_decision", unit: "count", on: "tb"},
		{name: "controller.leaf_evals_per_decision", unit: "count", on: "tb"},
		{name: "controller.slab_passes_per_decision", unit: "count", on: "b"},
		{name: "controller.fsc_hit_frac", unit: "ratio", on: "f"},
		{name: "controller.fsc_nodes", unit: "count", on: "f"},
		{name: "controller.decide_batch_us_p50", unit: "us", on: "b"},
		{name: "bounds.set_size_end", unit: "count", on: "tfb"},
		{name: "bounds.evictions_per_episode", unit: "count", on: "t", mayBeZero: true},
		{name: "sim.self_us_per_episode", unit: "us", on: "tf"},
		{name: "server.handler_us_p50.start", unit: "us", on: "f"},
		{name: "server.handler_us_p50.decision", unit: "us", on: "f"},
		{name: "server.handler_us_p50.observation", unit: "us", on: "f"},
		{name: "server.handler_us_p50.batch", unit: "us", on: "b"},
		{name: "server.self_us_p50", unit: "us", on: "fb"},
		{name: "checkpoint.save_us_p50", unit: "us", on: "f"},
		{name: "checkpoint.save_us_p99", unit: "us", on: "f"},
		{name: "checkpoint.saves_per_episode", unit: "count", on: "f"},
		{name: "checkpoint.tombstone_us_p50", unit: "us", on: "f"},
		{name: "checkpoint.delete_us_p50", unit: "us", on: "f"},
		{name: "checkpoint.bytes_per_episode", unit: "bytes", on: "f"},
		{name: "checkpoint.compactions", unit: "count", on: "f", mayBeZero: true},
		{name: "net.roundtrip_us_p50", unit: "us", on: "fb"},
		{name: "http.requests_per_episode", unit: "count", on: "fb"},
		{name: "client.attempts_per_call", unit: "count", on: "fb"},
		{name: "client.self_us_p50", unit: "us", on: "fb"},
		{name: "emn.build_s", unit: "s", on: "tfb"},
		{name: "core.prepare_s", unit: "s", on: "tfb"},
		{name: "core.bootstrap_s", unit: "s", on: "tfb"},
		{name: "core.refine_s", unit: "s", on: "f"},
		{name: "controller.fsc_compile_s", unit: "s", on: "f"},
		{name: "checkpoint.open_s", unit: "s", on: "f"},
		{name: "server.new_s", unit: "s", on: "fb"},
		{name: "runtime.allocs_per_episode", unit: "count", on: "tfb"},
		{name: "runtime.alloc_bytes_per_episode", unit: "bytes", on: "tfb"},
		{name: "runtime.gc_pause_us_per_s", unit: "us/s", on: "tfb", mayBeZero: true},
		{name: "trace.overhead_frac", unit: "ratio", on: "tfb", mayBeZero: true},
		{name: "attribution.wall_us_per_episode", unit: "us", on: "f"},
		{name: "attribution.client_us_per_episode", unit: "us", on: "f"},
		{name: "attribution.network_us_per_episode", unit: "us", on: "f"},
		{name: "attribution.server_self_us_per_episode", unit: "us", on: "f"},
		{name: "attribution.controller_us_per_episode", unit: "us", on: "f"},
		{name: "attribution.checkpoint_us_per_episode", unit: "us", on: "f"},
		{name: "tracer.wall_us_per_episode", unit: "us", on: "f"},
		{name: "tracer.client_us_per_episode", unit: "us", on: "f"},
		{name: "tracer.network_us_per_episode", unit: "us", on: "f"},
		{name: "tracer.server_us_per_episode", unit: "us", on: "f"},
		{name: "tracer.checkpoint_us_per_episode", unit: "us", on: "f"},
		{name: "tracer.episodes", unit: "count", on: "f"},
		{name: "tracer.max_disagreement", unit: "ratio", on: "f"},
		{name: "tracer.disagreements", unit: "count", on: "f", mayBeZero: true},
	}
)

func parseFlags(args []string) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+wlTable1+", "+wlFSC+" or "+wlBatch)
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for the checkpoint store")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch cfg.workload {
	case wlTable1, wlFSC, wlBatch:
	default:
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if *seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.seconds = float64(*seconds)
	cfg.trace = *trace == 1
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	// One P: the process's CPU time is then the program's work. With an idle
	// P the Go runtime runs idle-time GC mark workers and spinning threads,
	// whose CPU time follows how busy the host is, not the program.
	runtime.GOMAXPROCS(1)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !rep.res.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: output check failed")
		os.Exit(1)
	}
}

// run executes one workload run. An error means the run could not be
// measured; a failed output check is reported through the result.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	rep := newReport()
	switch cfg.workload {
	case wlTable1:
		err = runTable1(cfg, rep)
	case wlFSC:
		err = runServiceFSC(cfg, rep)
	case wlBatch:
		err = runServiceBatch(cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
		rep.set("runtime.peak_rss_mb", peakRSSMiB(), "MiB")
	}
	for name := range rep.res.Metrics {
		if !slices.ContainsFunc(names, func(m metricDef) bool { return m.name == name }) {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	for _, m := range names {
		if _, ok := rep.res.Metrics[m.name]; ok {
			continue
		}
		if m.appliesTo(cfg.workload) {
			return nil, fmt.Errorf("metric %s applies to %s but was not reported", m.name, cfg.workload)
		}
		rep.set(m.name, 0, m.unit)
	}
	return rep, nil
}

// peakRSSMiB is the process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupTimer times a workload's set-ups in process CPU time, each between
// two halves of setupRefUnits reference units. A run sets up at its start
// and again between chunks or after its rounds.
type setupTimer struct {
	build func(i int) (*stack, error) // i counts the set-ups made so far
	ph    []phases
	ref   []time.Duration // CPU time of the reference units around each set-up
}

// setupRefUnits is the number of reference units run around each set-up.
const setupRefUnits = 20

// run makes n set-ups and returns their stacks.
func (t *setupTimer) run(n int) ([]*stack, error) {
	var out []*stack
	for i := 0; i < n; i++ {
		ref := timeRefUnits(setupRefUnits / 2)
		st, err := t.build(len(t.ph))
		if err != nil {
			for _, s := range out {
				s.close()
			}
			return nil, err
		}
		out = append(out, st)
		t.ph = append(t.ph, st.phases)
		t.ref = append(t.ref, ref+timeRefUnits(setupRefUnits/2))
	}
	return out, nil
}

// sample makes n more set-ups, one at a time, and closes them. Each starts
// from a collected heap, as a set-up in a fresh process does; without that,
// the garbage of a burst of set-ups raised the process's peak RSS by up to
// half, at random, on top of the workload's own.
func (t *setupTimer) sample(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		stacks, err := t.run(1)
		if err != nil {
			return err
		}
		if err := stacks[0].close(); err != nil {
			return err
		}
	}
	return nil
}

// report reports the median set-up, and its phases in a traced run.
func (t *setupTimer) report(cfg config, rep *report) {
	med := func(d func(p phases) time.Duration) float64 {
		xs := make([]float64, len(t.ph))
		for i, p := range t.ph {
			xs[i] = d(p).Seconds()
		}
		return medianFloat(xs)
	}
	rep.notef("set-up: median CPU time %.4g s over %d set-ups", med(func(p phases) time.Duration { return p.total }), len(t.ph))
	if !cfg.trace {
		norm := make([]float64, len(t.ph))
		for i, p := range t.ph {
			norm[i] = ratio(float64(p.total), float64(t.ref[i])/setupRefUnits) * refNominal.Seconds()
		}
		rep.set("setup_s", medianFloat(norm), "s")
		return
	}
	rep.set("emn.build_s", med(func(p phases) time.Duration { return p.emnBuild }), "s")
	rep.set("core.prepare_s", med(func(p phases) time.Duration { return p.prepare }), "s")
	rep.set("core.bootstrap_s", med(func(p phases) time.Duration { return p.bootstrap }), "s")
	rep.set("core.refine_s", med(func(p phases) time.Duration { return p.refine }), "s")
	rep.set("controller.fsc_compile_s", med(func(p phases) time.Duration { return p.fscCompile }), "s")
	rep.set("server.new_s", med(func(p phases) time.Duration { return p.serverNew }), "s")
}

// storeDir is the directory of service_fsc's log store.
func storeDir(cfg config) string { return filepath.Join(cfg.workDir, "store") }

// spanBufferBytes caps each in-memory span stream of a traced run; episodes
// that end after a stream fills are left out of the cross-check.
const spanBufferBytes = 16 << 20

// cappedBuffer keeps whole writes until the next one would pass its limit,
// then records when it filled and drops the rest.
type cappedBuffer struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	limit  int
	fullAt time.Time
}

func newCappedBuffer(limit int) *cappedBuffer { return &cappedBuffer{limit: limit} }

func (c *cappedBuffer) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fullAt.IsZero() && c.buf.Len()+len(p) > c.limit {
		c.fullAt = time.Now()
	}
	if c.fullAt.IsZero() {
		c.buf.Write(p)
	}
	return len(p), nil
}

// contents returns the kept bytes and when the buffer filled (zero if it
// never did).
func (c *cappedBuffer) contents() ([]byte, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...), c.fullAt
}

var errNoWork = errors.New("no operation completed inside the measured window")
