package sim

import (
	"errors"
	"reflect"
	"testing"

	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
)

func TestRunCampaignParallelMatchesSequentialForStatelessController(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (controller.Controller, pomdp.Belief, error) {
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		return ctrl, pomdp.UniformBelief(3), err
	}
	const episodes = 60
	// Sequential baseline via the same factory.
	ctrl, initial, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := runner.RunCampaign(ctrl, initial, []int{1, 2}, episodes, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	seq.AlgoTimeMs = statsAcc{}
	for _, workers := range []int{1, 3, 8} {
		par, err := runner.RunCampaignOpts(nil, nil, []int{1, 2}, episodes, rng.New(5), CampaignOptions{
			Workers: workers, WorkerFactory: factory,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The most-likely controller carries no cross-episode state, so the
		// index-ordered fold must reproduce the sequential run to the bit.
		par.AlgoTimeMs = statsAcc{}
		if !reflect.DeepEqual(par, seq) {
			t.Errorf("workers=%d diverges from sequential:\nseq:      %+v\nparallel: %+v", workers, seq, par)
		}
	}
}

func TestRunCampaignParallelBoundedControllers(t *testing.T) {
	rm, _ := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Each worker gets its own Prepared (and thus its own mutable bound
	// set); the bounded controller is not safe to share across goroutines.
	factory := func() (controller.Controller, pomdp.Belief, error) {
		prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 10})
		if err != nil {
			return nil, nil, err
		}
		// Bootstrapping before control is part of the paper's protocol: the
		// raw RA-Bound can be loose enough to make premature termination
		// look attractive.
		if _, err := prep.Bootstrap(10, controller.VariantAverage, 1, rng.New(77)); err != nil {
			return nil, nil, err
		}
		ctrl, err := prep.NewController(core.ControllerConfig{Depth: 1, ImproveOnline: true})
		if err != nil {
			return nil, nil, err
		}
		initial, err := prep.InitialBelief()
		return ctrl, initial, err
	}
	res, err := runner.RunCampaignOpts(nil, nil, []int{1, 2}, 40, rng.New(9), CampaignOptions{
		Workers: 4, WorkerFactory: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != res.Episodes {
		t.Errorf("recovered %d/%d", res.Recovered, res.Episodes)
	}
}

func TestRunCampaignParallelValidation(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 10)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (controller.Controller, pomdp.Belief, error) {
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		return ctrl, pomdp.UniformBelief(3), err
	}
	parallel := func(f ControllerFactory) CampaignOptions {
		return CampaignOptions{Workers: 2, WorkerFactory: f}
	}
	if _, err := runner.RunCampaignOpts(nil, nil, nil, 5, rng.New(1), parallel(factory)); err == nil {
		t.Error("empty faults accepted")
	}
	if _, err := runner.RunCampaignOpts(nil, nil, []int{1}, 0, rng.New(1), parallel(factory)); err == nil {
		t.Error("zero episodes accepted")
	}
	if _, err := runner.RunCampaignOpts(nil, nil, []int{1}, 5, rng.New(1), parallel(nil)); err == nil {
		t.Error("nil factory accepted")
	}
	bad := func() (controller.Controller, pomdp.Belief, error) {
		return nil, nil, errors.New("boom")
	}
	if _, err := runner.RunCampaignOpts(nil, nil, []int{1}, 5, rng.New(1), parallel(bad)); err == nil {
		t.Error("factory error swallowed")
	}
	// A worker without a controller is not an episode-level failure, so
	// ContinueOnError does not turn it into Abandoned episodes.
	opts := parallel(bad)
	opts.ContinueOnError = true
	if _, err := runner.RunCampaignOpts(nil, nil, []int{1}, 5, rng.New(1), opts); err == nil {
		t.Error("factory error swallowed under ContinueOnError")
	}
}
