package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"bpomdp/internal/controller"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
	"bpomdp/internal/stats"
)

// oldSequentialCampaign is a verbatim transcription of the pre-unification
// sequential RunCampaignOpts loop (PR 1 vintage). The unified engine with
// Workers == 1 must reproduce it bit-for-bit — same seeds, same episode
// order, same accumulator fold order — which is what pins down "the
// sequential path is just workers=1".
func oldSequentialCampaign(r *Runner, ctrl controller.Controller, initial pomdp.Belief, faultStates []int, episodes int, stream *rng.Stream, opts CampaignOptions) (CampaignResult, error) {
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
	if ctrl == nil && opts.EpisodeFactory == nil {
		return out, fmt.Errorf("sim: nil controller and no episode factory")
	}
	for i := 0; i < episodes; i++ {
		ep := stream.SplitN("episode", i)
		fault := faultStates[ep.IntN(len(faultStates))]
		epCtrl := ctrl
		var done func(error)
		if opts.EpisodeFactory != nil {
			c, cleanup, err := opts.EpisodeFactory(i)
			if err != nil {
				if opts.ContinueOnError {
					out.Abandoned++
					continue
				}
				return out, fmt.Errorf("sim: episode %d factory: %w", i, err)
			}
			epCtrl, done = c, cleanup
			if out.Name == "" {
				out.Name = epCtrl.Name()
			}
		}
		res, err := r.RunEpisode(epCtrl, initial, fault, ep)
		if done != nil {
			done(err)
		}
		if err != nil {
			if opts.ContinueOnError {
				out.Abandoned++
				continue
			}
			return out, fmt.Errorf("sim: episode %d (fault %s): %w",
				i, r.rm.POMDP.M.StateName(fault), err)
		}
		out.Episodes++
		if res.Recovered {
			out.Recovered++
		}
		out.Cost.Add(res.Cost)
		out.RecoveryTime.Add(res.RecoveryTime)
		out.ResidualTime.Add(res.ResidualTime)
		out.AlgoTimeMs.Add(float64(res.AlgoTime) / float64(time.Millisecond))
		out.Actions.Add(float64(res.Actions))
		out.MonitorCalls.Add(float64(res.MonitorCalls))
	}
	return out, nil
}

// statsAcc is the zero accumulator used to blank the one wall-clock-derived
// metric (AlgoTimeMs) before bit-for-bit comparison: it folds real
// durations, which legitimately differ between any two runs.
type statsAcc = stats.Accumulator

func TestUnifiedWorkers1MatchesOldSequential(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	newCtrl := func() controller.Controller {
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	uniform := pomdp.UniformBelief(3)
	faults := []int{1, 2}
	const episodes = 80

	old, err := oldSequentialCampaign(runner, newCtrl(), uniform, faults, episodes, rng.New(17), CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unified, err := runner.RunCampaignOpts(newCtrl(), uniform, faults, episodes, rng.New(17), CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// AlgoTimeMs folds real wall-clock durations, which legitimately differ
	// between any two runs; everything else must be identical to the bit.
	old.AlgoTimeMs, unified.AlgoTimeMs = statsAcc{}, statsAcc{}
	if !reflect.DeepEqual(old, unified) {
		t.Errorf("unified workers=1 diverges from the old sequential runner:\nold:     %+v\nunified: %+v", old, unified)
	}
}

func TestUnifiedWorkers1MatchesOldSequentialWithFactoryAndErrors(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Each controller is named after its episode, so the campaign's Name
	// shows which episode it was taken from: the first, at any worker count.
	factory := func(i int) (controller.Controller, func(error), error) {
		if i%4 == 3 {
			return nil, nil, errors.New("flaky factory")
		}
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		return episodeNamed{ctrl, fmt.Sprintf("most-likely#%d", i)}, nil, err
	}
	uniform := pomdp.UniformBelief(3)
	faults := []int{1, 2}
	opts := CampaignOptions{ContinueOnError: true, EpisodeFactory: factory}

	old, err := oldSequentialCampaign(runner, nil, uniform, faults, 40, rng.New(23), opts)
	if err != nil {
		t.Fatal(err)
	}
	old.AlgoTimeMs = statsAcc{}
	for _, workers := range []int{1, 2, 4, 8} {
		opts.Workers = workers
		unified, err := runner.RunCampaignOpts(nil, uniform, faults, 40, rng.New(23), opts)
		if err != nil {
			t.Fatal(err)
		}
		unified.AlgoTimeMs = statsAcc{}
		if !reflect.DeepEqual(old, unified) {
			t.Errorf("workers=%d: factory/ContinueOnError parity broken:\nold:     %+v\nunified: %+v", workers, old, unified)
		}
		if unified.Abandoned != 10 {
			t.Errorf("workers=%d: abandoned = %d, want 10", workers, unified.Abandoned)
		}
	}
}

// episodeNamed renames a controller.
type episodeNamed struct {
	controller.Controller
	name string
}

func (e episodeNamed) Name() string { return e.name }

func TestUnifiedWorkers4Deterministic(t *testing.T) {
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
	run := func() CampaignResult {
		res, err := runner.RunCampaignOpts(nil, nil, []int{1, 2}, 60, rng.New(31), CampaignOptions{
			Workers: 4, WorkerFactory: factory,
		})
		if err != nil {
			t.Fatal(err)
		}
		zeroed := res
		zeroed.AlgoTimeMs = statsAcc{}
		return zeroed
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fixed workers=4 campaigns with the same seed differ:\na: %+v\nb: %+v", a, b)
	}
	if a.Episodes != 60 {
		t.Errorf("episodes = %d, want 60", a.Episodes)
	}
}

// decideFailController errors on Decide — a stand-in for a controller whose
// backing transport died mid-campaign.
type decideFailController struct{}

func (decideFailController) Reset(pomdp.Belief) error { return nil }
func (decideFailController) Decide() (controller.Decision, error) {
	return controller.Decision{}, errors.New("transport down")
}
func (decideFailController) Observe(int, int) error { return nil }
func (decideFailController) Belief() pomdp.Belief   { return nil }
func (decideFailController) Name() string           { return "decide-fail" }

// TestParallelWorkerErrorPreservesPartialResults is the regression test for
// the pre-unification data loss, when a parallel campaign returned
// CampaignResult{} whenever any worker erred — discarding every completed
// episode. A failing campaign must keep the episodes before its lowest
// failing index, whatever the worker count, and report that episode's error.
func TestParallelWorkerErrorPreservesPartialResults(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	goodCtrl := func() (controller.Controller, error) {
		return controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
	}
	// Episodes 1 and 2 (workers 1 and 2 of 4) fail on their first episode,
	// so the campaign is the prefix before episode 1.
	factory := func(i int) (controller.Controller, func(error), error) {
		if i == 1 || i == 2 {
			return decideFailController{}, nil, nil
		}
		ctrl, err := goodCtrl()
		return ctrl, nil, err
	}
	res, err := runner.RunCampaignOpts(nil, pomdp.UniformBelief(3), []int{1, 2}, 40, rng.New(3), CampaignOptions{
		Workers: 4, EpisodeFactory: factory,
	})
	if err == nil {
		t.Fatal("campaign with two failing workers reported success")
	}
	if res.Episodes != 1 {
		t.Fatalf("episodes = %d, want the 1 completed before the lowest failure: %+v", res.Episodes, res)
	}
	if res.Episodes != res.Cost.N() {
		t.Errorf("episodes %d != cost samples %d: partial fold inconsistent", res.Episodes, res.Cost.N())
	}
	if msg := err.Error(); !strings.Contains(msg, "episode 1") {
		t.Errorf("error should name the lowest failing episode 1, got: %v", msg)
	}
	// With ContinueOnError the same failures become Abandoned counts and the
	// campaign completes every other episode.
	res, err = runner.RunCampaignOpts(nil, pomdp.UniformBelief(3), []int{1, 2}, 40, rng.New(3), CampaignOptions{
		Workers: 4, EpisodeFactory: factory, ContinueOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned != 2 {
		t.Errorf("abandoned = %d, want 2", res.Abandoned)
	}
	if res.Episodes != 38 {
		t.Errorf("episodes = %d, want 38", res.Episodes)
	}
}

// TestSequentialEpisodeErrorPreservesPartialResults pins the same guarantee
// at every worker count, the sequential one included: the prefix before the
// failing episode, whatever runs it.
func TestSequentialEpisodeErrorPreservesPartialResults(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(i int) (controller.Controller, func(error), error) {
		if i == 5 {
			return decideFailController{}, nil, nil
		}
		ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
			NullStates: ts.NullStates, TerminationProbability: 0.999,
		})
		return ctrl, nil, err
	}
	for _, workers := range []int{0, 1, 2, 4, 8} {
		res, err := runner.RunCampaignOpts(nil, pomdp.UniformBelief(3), []int{1, 2}, 20, rng.New(3), CampaignOptions{
			EpisodeFactory: factory, Workers: workers,
		})
		if err == nil {
			t.Fatal("campaign with failing episode reported success")
		}
		if res.Episodes != 5 {
			t.Errorf("episodes = %d, want the 5 completed before the failure", res.Episodes)
		}
	}
}

// TestSharedControllerRejectedInParallel: a shared stateful controller
// cannot be driven from several goroutines; the engine must refuse rather
// than race.
func TestSharedControllerRejectedInParallel(t *testing.T) {
	rm, ts := twoServerRecovery(t)
	runner, err := NewRunner(rm, 500)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.NewMostLikely(ts.Model, controller.MostLikelyConfig{
		NullStates: ts.NullStates, TerminationProbability: 0.999,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runner.RunCampaignOpts(ctrl, pomdp.UniformBelief(3), []int{1, 2}, 20, rng.New(3), CampaignOptions{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "shared controller") {
		t.Errorf("shared controller with Workers=4 accepted: %v", err)
	}
}
