package bounds_test

import (
	"testing"

	"bpomdp/internal/bounds"
	"bpomdp/internal/core"
	"bpomdp/internal/emn"
	"bpomdp/internal/rng"
)

// TestUpdaterMatchesScoreMatrixOracleEMN pins the flat updater to the
// score-matrix oracle bit for bit on the paper's EMN model: 1,000 updates
// at visited beliefs from the RA-Bound set, then 500 more on a copy capped
// at 40 planes so least-used eviction runs.
func TestUpdaterMatchesScoreMatrixOracleEMN(t *testing.T) {
	compiled, err := emn.Build(emn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(compiled.Recovery, core.PrepareOptions{
		OperatorResponseTime: emn.OperatorResponseTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	start, err := prep.InitialBelief()
	if err != nil {
		t.Fatal(err)
	}
	bounds.CheckUpdaterOracle(t, prep.Model, prep.Set, start, 1000, rng.New(61))

	capped, err := prep.Set.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	set := new(bounds.Set)
	if err := set.UnmarshalJSON(capped); err != nil {
		t.Fatal(err)
	}
	set.SetCapacity(40)
	bounds.CheckUpdaterOracle(t, prep.Model, set, start, 500, rng.New(62))
}
