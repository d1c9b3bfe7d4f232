package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/server"
)

// The benchmark times every layer from the outside: each wrapper below sits
// on one public interface of the program (controller.Controller and its
// optional interfaces, server.Checkpointer, the *server.Server http.Handler,
// the client's http.RoundTripper) and records the time spent inside the
// wrapped call. Spans stay in memory until the run ends.

// ctrlObserver receives the timings of calls into a wrapped controller.
type ctrlObserver interface {
	decided(el time.Duration, c controller.Controller)
	decidedBatch(el time.Duration, c controller.Controller, pis []pomdp.Belief)
	observed(el time.Duration)
	reset(el time.Duration)
}

// timedCtrl wraps a controller that implements no optional interface.
type timedCtrl struct {
	inner controller.Controller
	obs   ctrlObserver
}

func (w *timedCtrl) Reset(b pomdp.Belief) error {
	t0 := time.Now()
	err := w.inner.Reset(b)
	w.obs.reset(time.Since(t0))
	return err
}

func (w *timedCtrl) Decide() (controller.Decision, error) {
	t0 := time.Now()
	d, err := w.inner.Decide()
	w.obs.decided(time.Since(t0), w.inner)
	return d, err
}

func (w *timedCtrl) Observe(action, obs int) error {
	t0 := time.Now()
	err := w.inner.Observe(action, obs)
	w.obs.observed(time.Since(t0))
	return err
}

func (w *timedCtrl) Belief() pomdp.Belief { return w.inner.Belief() }
func (w *timedCtrl) Name() string         { return w.inner.Name() }

// fullDecider is the interface set shared by controller.Bounded and
// controller.FSCDecider.
type fullDecider interface {
	controller.Controller
	controller.BatchDecider
	controller.TierSource
	controller.BatchStatsSource
}

// timedDecider wraps a fullDecider and forwards every optional interface, so
// the server keeps its tier labels and sim keeps its decision stats.
type timedDecider struct {
	timedCtrl
	full fullDecider
}

func (w *timedDecider) DecideBatch(pis []pomdp.Belief, out []controller.Decision) error {
	t0 := time.Now()
	err := w.full.DecideBatch(pis, out)
	w.obs.decidedBatch(time.Since(t0), w.full, pis)
	return err
}

func (w *timedDecider) LastTier() string                        { return w.full.LastTier() }
func (w *timedDecider) StatsEnabled() bool                      { return w.full.StatsEnabled() }
func (w *timedDecider) DecisionStats() controller.DecisionStats { return w.full.DecisionStats() }
func (w *timedDecider) BatchDecisionStats() []controller.DecisionStats {
	return w.full.BatchDecisionStats()
}

// wrapController wraps c so that it implements exactly the optional
// interfaces c implements. It refuses interface sets it cannot mirror, since
// a wrapper that hid one would make the program take another path.
func wrapController(c controller.Controller, obs ctrlObserver) (controller.Controller, error) {
	if f, ok := c.(fullDecider); ok {
		if _, sa := c.(controller.StateAware); !sa {
			return &timedDecider{timedCtrl: timedCtrl{inner: f, obs: obs}, full: f}, nil
		}
	}
	_, batch := c.(controller.BatchDecider)
	_, tier := c.(controller.TierSource)
	_, stats := c.(controller.StatsSource)
	_, aware := c.(controller.StateAware)
	if batch || tier || stats || aware {
		return nil, fmt.Errorf("e2ebench: cannot mirror the optional interfaces of %T", c)
	}
	return &timedCtrl{inner: c, obs: obs}, nil
}

// decideTimer is the untraced in-process observer: it keeps only the
// Controller.Decide latencies the end-to-end metrics need. Single goroutine.
type decideTimer struct {
	ns []int64
}

func (d *decideTimer) decided(el time.Duration, _ controller.Controller) {
	d.ns = append(d.ns, int64(el))
}
func (d *decideTimer) decidedBatch(time.Duration, controller.Controller, []pomdp.Belief) {}
func (d *decideTimer) observed(time.Duration)                                            {}
func (d *decideTimer) reset(time.Duration)                                               {}

// Request keys tie the controller and checkpoint calls a server request
// makes to the client call that sent it, without changing the program: in
// service_fsc the key is the episode's clientKey (one request per episode is
// in flight), in service_batch it is a fingerprint of the request's beliefs.

// headerSeq carries the benchmark's request sequence number from its
// RoundTripper to its handler wrapper; the program ignores the header.
const headerSeq = "X-E2ebench-Seq"

// inner is the controller and checkpoint time charged to one request key.
type inner struct {
	ctrl, ckpt time.Duration
}

// handled is one served request: the handler wrapper's duration and when it
// returned.
type handled struct {
	dur time.Duration
	end time.Time
}

// tracer is the traced run's in-memory span store for the controller,
// server, checkpoint and network layers.
type tracer struct {
	decide, observe, decideBatch samples
	ctrlNanos                    atomic.Int64
	decisions, treeNodes         atomic.Uint64
	leafEvals, slabPasses        atomic.Uint64

	handler map[string]*samples // by route; the map itself is never written after newTracer

	save, tomb, del samples
	// stored keeps every 8th snapshot and tombstone handed to the store, so
	// their encoded size can be measured after the run, off the clock.
	storeMu    sync.Mutex
	storeCalls int
	stored     []any

	mu     sync.Mutex
	byKey  map[string]*inner
	idKey  map[uint64]string  // episode id -> clientKey, for Checkpointer.Delete
	served map[uint64]handled // by request sequence number

	// startMu serializes start requests so the controller factory can learn
	// the new episode's key from pending.
	startMu sync.Mutex
	pending string

	seq       atomic.Uint64
	unmatched atomic.Int64

	exchange, net, serverSelf, clientSelf samples
}

// Server routes timed by the handler wrapper.
var routes = []string{"start", "decision", "observation", "batch", "other"}

func newTracer() *tracer {
	t := &tracer{
		handler: map[string]*samples{},
		byKey:   map[string]*inner{},
		idKey:   map[uint64]string{},
		served:  map[uint64]handled{},
	}
	for _, r := range routes {
		t.handler[r] = &samples{}
	}
	return t
}

// charge adds controller or checkpoint time to a request key.
func (t *tracer) charge(key string, ctrl, ckpt time.Duration) {
	if key == "" {
		return
	}
	t.mu.Lock()
	a := t.byKey[key]
	if a == nil {
		a = &inner{}
		t.byKey[key] = a
	}
	a.ctrl += ctrl
	a.ckpt += ckpt
	t.mu.Unlock()
}

// take removes and returns the time charged to key.
func (t *tracer) take(key string) inner {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.byKey[key]
	delete(t.byKey, key)
	if a == nil {
		return inner{}
	}
	return *a
}

func (t *tracer) addStats(st controller.DecisionStats) {
	t.decisions.Add(1)
	t.treeNodes.Add(st.TreeNodes)
	t.leafEvals.Add(st.LeafEvals)
	t.slabPasses.Add(st.SlabPasses)
}

// keyed is the tracer's observer for one wrapped controller; key is the
// episode it serves ("" in process).
type keyed struct {
	t   *tracer
	key string
}

func (k keyed) ctrl(el time.Duration) {
	k.t.ctrlNanos.Add(int64(el))
	k.t.charge(k.key, el, 0)
}

func (k keyed) decided(el time.Duration, c controller.Controller) {
	k.t.decide.add(el)
	if ss, ok := c.(controller.StatsSource); ok && ss.StatsEnabled() {
		k.t.addStats(ss.DecisionStats())
	}
	k.ctrl(el)
}

func (k keyed) decidedBatch(el time.Duration, c controller.Controller, pis []pomdp.Belief) {
	k.t.decideBatch.add(el)
	if ss, ok := c.(controller.BatchStatsSource); ok && ss.StatsEnabled() {
		for _, st := range ss.BatchDecisionStats() {
			k.t.addStats(st)
		}
	}
	k.t.ctrlNanos.Add(int64(el))
	k.t.charge(fingerprint(pis), el, 0)
}

func (k keyed) observed(el time.Duration) {
	k.t.observe.add(el)
	k.ctrl(el)
}

func (k keyed) reset(el time.Duration) { k.ctrl(el) }

// fingerprint keys a batch request by its beliefs (FNV-1a over their bits).
// The server decodes them from JSON bit for bit, so client and decider agree.
func fingerprint(pis []pomdp.Belief) string {
	h := uint64(14695981039346656037)
	for _, pi := range pis {
		for _, x := range pi {
			h ^= math.Float64bits(x)
			h *= 1099511628211
		}
	}
	return "batch-" + strconv.FormatUint(h, 16)
}

// newEpisodeKey returns the clientKey of the start request the calling
// controller factory serves; see startMu.
func (t *tracer) newEpisodeKey() string { return t.pending }

func (t *tracer) chargeCkpt(s *samples, key string, el time.Duration, rec any) {
	s.add(el)
	t.charge(key, 0, el)
	if rec == nil {
		return
	}
	t.storeMu.Lock()
	if t.storeCalls%8 == 0 {
		t.stored = append(t.stored, rec)
	}
	t.storeCalls++
	t.storeMu.Unlock()
}

// storedBytes estimates the JSON bytes of all snapshots and tombstones
// handed to the store from the sampled ones.
func (t *tracer) storedBytes() float64 {
	t.storeMu.Lock()
	defer t.storeMu.Unlock()
	if len(t.stored) == 0 {
		return 0
	}
	var n int
	for _, rec := range t.stored {
		b, err := json.Marshal(rec)
		if err == nil {
			n += len(b)
		}
	}
	return float64(n) / float64(len(t.stored)) * float64(t.storeCalls)
}

// timedStore wraps a server.Checkpointer.
type timedStore struct {
	inner server.Checkpointer
	t     *tracer
}

func (s *timedStore) Save(st server.EpisodeState) error {
	s.t.mu.Lock()
	s.t.idKey[st.EpisodeID] = st.ClientKey
	s.t.mu.Unlock()
	t0 := time.Now()
	err := s.inner.Save(st)
	s.t.chargeCkpt(&s.t.save, st.ClientKey, time.Since(t0), st)
	return err
}

func (s *timedStore) SaveTombstone(ts server.TombstoneState) error {
	t0 := time.Now()
	err := s.inner.SaveTombstone(ts)
	s.t.chargeCkpt(&s.t.tomb, ts.ClientKey, time.Since(t0), ts)
	return err
}

func (s *timedStore) Delete(id uint64) error {
	s.t.mu.Lock()
	key := s.t.idKey[id]
	delete(s.t.idKey, id)
	s.t.mu.Unlock()
	t0 := time.Now()
	err := s.inner.Delete(id)
	s.t.chargeCkpt(&s.t.del, key, time.Since(t0), nil)
	return err
}

func (s *timedStore) DeleteTombstone(id uint64) error { return s.inner.DeleteTombstone(id) }
func (s *timedStore) LoadAll() ([]server.EpisodeState, []server.CorruptCheckpoint, error) {
	return s.inner.LoadAll()
}
func (s *timedStore) LoadTombstones() ([]server.TombstoneState, []server.CorruptCheckpoint, error) {
	return s.inner.LoadTombstones()
}

// routeOf names the API route of a request.
func routeOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/episodes":
		return "start"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/decide/batch":
		return "batch"
	case strings.HasSuffix(r.URL.Path, "/decision"):
		return "decision"
	case strings.HasSuffix(r.URL.Path, "/observations"):
		return "observation"
	}
	return "other"
}

// timedHandler wraps the *server.Server http.Handler.
type timedHandler struct {
	inner http.Handler
	t     *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	if route == "start" {
		h.t.startMu.Lock()
		defer h.t.startMu.Unlock()
		h.t.pending = r.Header.Get(server.HeaderEpisodeKey)
	}
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	el := time.Since(t0)
	h.t.handler[route].add(el)
	if seq, err := strconv.ParseUint(r.Header.Get(headerSeq), 10, 64); err == nil {
		h.t.mu.Lock()
		h.t.served[seq] = handled{dur: el, end: t0.Add(el)}
		h.t.mu.Unlock()
	}
}

// takeServed removes and returns the handler timing of request seq.
func (t *tracer) takeServed(seq uint64) (handled, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.served[seq]
	delete(t.served, seq)
	return h, ok
}

// buckets attributes client-observed time outside in. For one call,
// client + network + serverSelf + controller + checkpoint = wall exactly.
type buckets struct {
	wall, client, network, serverSelf, controller, checkpoint int64
}

func (b *buckets) add(o buckets) {
	b.wall += o.wall
	b.client += o.client
	b.network += o.network
	b.serverSelf += o.serverSelf
	b.controller += o.controller
	b.checkpoint += o.checkpoint
}

// clientSide is one client goroutine's view: the decide latencies the
// end-to-end metrics need and, in a traced run, the attribution of each call
// to the layers beneath it. Owned by that goroutine.
type clientSide struct {
	t        *tracer // nil when untraced
	key      string  // request key of the calls being made
	decideNs []int64
	// The exchanges of the call in flight.
	callExchange, callHandler time.Duration
	callAttempts              int
	// Totals of the current episode.
	ep       buckets
	callNs   int64
	calls    int
	attempts int
}

// timedTransport is one client goroutine's http.RoundTripper wrapper. It
// tags each request with a sequence number (on a clone: a RoundTripper must
// not modify its request) so the handler wrapper's timing can be matched.
// An exchange lasts from the request until the response has arrived and the
// handler has returned: a large response can reach the client while the
// handler is still writing it.
type timedTransport struct {
	base http.RoundTripper
	cs   *clientSide
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.cs.t
	seq := t.seq.Add(1)
	r2 := req.Clone(req.Context())
	r2.Header.Set(headerSeq, strconv.FormatUint(seq, 10))
	t0 := time.Now()
	resp, err := tt.base.RoundTrip(r2)
	back := time.Now()
	if h, ok := t.takeServed(seq); ok || err != nil {
		tt.finish(t0, back, h, ok)
		return resp, err
	}
	resp.Body = &exchangeBody{ReadCloser: resp.Body, close: func() {
		h, ok := t.takeServed(seq)
		tt.finish(t0, back, h, ok)
	}}
	return resp, nil
}

func (tt *timedTransport) finish(t0, back time.Time, h handled, ok bool) {
	t, cs := tt.cs.t, tt.cs
	if !ok {
		t.unmatched.Add(1)
	}
	if h.end.After(back) {
		back = h.end
	}
	e := back.Sub(t0)
	t.exchange.add(e)
	t.net.add(e - h.dur)
	cs.callExchange += e
	cs.callHandler += h.dur
	cs.callAttempts++
}

// exchangeBody runs close once, before closing the response body.
type exchangeBody struct {
	io.ReadCloser
	close func()
}

func (b *exchangeBody) Close() error {
	if b.close != nil {
		b.close()
		b.close = nil
	}
	return b.ReadCloser.Close()
}

// endCall closes one client call that took el.
func (cs *clientSide) endCall(el time.Duration) {
	cs.callNs += int64(el)
	cs.calls++
	if cs.t == nil {
		return
	}
	in := cs.t.take(cs.key)
	self := cs.callHandler - in.ctrl - in.ckpt
	cs.t.serverSelf.add(self)
	cs.t.clientSelf.add(el - cs.callExchange)
	cs.ep.add(buckets{
		wall:       int64(el),
		client:     int64(el - cs.callExchange),
		network:    int64(cs.callExchange - cs.callHandler),
		serverSelf: int64(self),
		controller: int64(in.ctrl),
		checkpoint: int64(in.ckpt),
	})
	cs.attempts += cs.callAttempts
	cs.callExchange, cs.callHandler, cs.callAttempts = 0, 0, 0
}

// timeCall runs f as one client call.
func (cs *clientSide) timeCall(f func() error) error {
	t0 := time.Now()
	err := f()
	cs.endCall(time.Since(t0))
	return err
}

// clientSide observes the remote client.Episode driven by sim.Runner: each
// Decide and Observe is one client call. Reset sends nothing.
func (cs *clientSide) decided(el time.Duration, _ controller.Controller) {
	cs.decideNs = append(cs.decideNs, int64(el))
	cs.endCall(el)
}
func (cs *clientSide) decidedBatch(time.Duration, controller.Controller, []pomdp.Belief) {}
func (cs *clientSide) observed(el time.Duration)                                         { cs.endCall(el) }
func (cs *clientSide) reset(time.Duration)                                               {}
