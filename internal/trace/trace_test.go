package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/models"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/sim"
)

func fixture(t *testing.T) (*pomdp.POMDP, controller.Controller) {
	t.Helper()
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
		NullStates:             ts.NullStates,
		TerminationProbability: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ts.Model, ctrl
}

func TestWrapLogsLifecycle(t *testing.T) {
	model, ctrl := fixture(t)
	var buf strings.Builder
	traced := Wrap(ctrl, &Tracer{W: &buf, Model: model, ShowBelief: true})

	if err := traced.Reset(pomdp.UniformBelief(3)); err != nil {
		t.Fatal(err)
	}
	d, err := traced.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d.Terminate {
		t.Fatal("unexpected terminate")
	}
	if err := traced.Observe(d.Action, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"reset", "choose", "observed", "belief={", "most-likely"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if traced.Name() != ctrl.Name() {
		t.Errorf("Name = %q", traced.Name())
	}
	if b := traced.Belief(); !b.IsDistribution() {
		t.Errorf("Belief passthrough broken: %v", b)
	}
}

func TestWrapLogsTerminate(t *testing.T) {
	model, ctrl := fixture(t)
	var buf strings.Builder
	traced := Wrap(ctrl, &Tracer{W: &buf, Model: model})
	if err := traced.Reset(pomdp.PointBelief(3, 0)); err != nil {
		t.Fatal(err)
	}
	d, err := traced.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Terminate {
		t.Fatal("expected terminate from certain-null belief")
	}
	if !strings.Contains(buf.String(), "TERMINATE") {
		t.Errorf("terminate not logged:\n%s", buf.String())
	}
}

func TestWrapPropagatesErrors(t *testing.T) {
	model, ctrl := fixture(t)
	var buf strings.Builder
	traced := Wrap(ctrl, &Tracer{W: &buf, Model: model})
	// Decide before Reset must fail and be logged.
	if _, err := traced.Decide(); err == nil {
		t.Error("Decide before Reset accepted")
	}
	if err := traced.Reset(pomdp.Belief{9}); err == nil {
		t.Error("bad belief accepted")
	}
	if !strings.Contains(buf.String(), "failed") {
		t.Errorf("errors not logged:\n%s", buf.String())
	}
}

func TestWrapForwardsTrueState(t *testing.T) {
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := controller.NewOracle(ts.Model, ts.NullStates)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	traced := Wrap(oracle, &Tracer{W: &buf, Model: ts.Model})
	if err := traced.Reset(nil); err != nil {
		t.Fatal(err)
	}
	sa, ok := traced.(controller.StateAware)
	if !ok {
		t.Fatal("wrapper lost StateAware")
	}
	sa.ObserveTrueState(ts.StateFaultA)
	d, err := traced.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d.Terminate || d.Action != ts.ActionRestartA {
		t.Errorf("oracle through wrapper chose %+v", d)
	}
	if !strings.Contains(buf.String(), "true state is fault-a") {
		t.Errorf("true state not logged:\n%s", buf.String())
	}
}

// recoveryFixture builds the two-server recovery model and a factory of
// independent bounded controllers (each over its own prepared bound set).
func recoveryFixture(t *testing.T) (*core.RecoveryModel, func() (*controller.Bounded, pomdp.Belief)) {
	t.Helper()
	ts, err := models.NewTwoServer(models.TwoServerConfig{Coverage: 0.9, FalsePositive: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rm := &core.RecoveryModel{
		POMDP:           ts.Model,
		NullStates:      ts.NullStates,
		RateRewards:     ts.RateRewards,
		Durations:       []float64{1, 1, 0},
		MonitorAction:   ts.ActionObserve,
		MonitorDuration: 0.1,
	}
	mk := func() (*controller.Bounded, pomdp.Belief) {
		prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 10})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		initial, err := prep.InitialBelief()
		if err != nil {
			t.Fatal(err)
		}
		return ctrl, initial
	}
	return rm, mk
}

// syncBuffer is a goroutine-safe writer; the Tracer mutex already
// serializes whole lines, this only guards the underlying buffer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTracerSharedAcrossWorkers runs one Tracer shared by the controllers
// of a Workers>1 campaign. Under -race this pins the Tracer's write lock:
// before the fix, concurrent fmt.Fprintf calls raced on W.
func TestTracerSharedAcrossWorkers(t *testing.T) {
	rm, mk := recoveryFixture(t)
	runner, err := sim.NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	tracer := &Tracer{W: &buf, Model: rm.POMDP}
	factory := func() (controller.Controller, pomdp.Belief, error) {
		ctrl, initial := mk()
		return Wrap(ctrl, tracer), initial, nil
	}
	res, err := runner.RunCampaignOpts(nil, nil, []int{1, 2}, 24, rng.New(71), sim.CampaignOptions{
		Workers: 4, WorkerFactory: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes != 24 {
		t.Fatalf("campaign ran %d episodes, want 24", res.Episodes)
	}
	out := buf.String()
	for _, want := range []string{"reset", "TERMINATE"} {
		if !strings.Contains(out, want) {
			t.Errorf("shared trace missing %q", want)
		}
	}
	// Every line must be intact: it starts with the controller tag, so a
	// torn write would leave a line starting elsewhere.
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "[bounded(") {
			t.Fatalf("line %d torn or interleaved: %q", i, line)
		}
	}
}
