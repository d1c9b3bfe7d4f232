package main

import (
	"encoding/json"
	"time"
)

// The gated cost metrics are CPU time in reference units. A reference unit
// is a fixed computation that the benchmark runs after every operation it
// times: encoding/json round trips of a small episode-like document. An
// operation's CPU time divided by a reference unit's, both taken in the same
// round, cancels what the host does to the speed of the process: a busy
// sibling hyperthread, caches a neighbour cooled, a slower clock. CPU time
// alone does not: over minutes on a 2-core virtual machine, one seed's CPU
// time per episode moved by a third between runs, and so did a set-up's,
// while nothing else ran in the machine.
//
// The reference is standard-library code, so no change to the program can
// change it, and it is general Go code (reflection, allocation, number
// formatting and parsing, branches), as the program is. A tight
// floating-point loop shaped like a Max-Avg leaf evaluation tracked the
// program less well within a run, and between runs half an hour apart its
// ratio to an in-process episode moved from 1.21 to 1.00; over seven later
// runs the JSON round trip's stayed within 0.643-0.652. README.md has the
// figures.

// refDoc is the reference document: one decision of a 32-state episode.
type refDoc struct {
	Episode int       `json:"episode"`
	Key     string    `json:"key"`
	Belief  []float64 `json:"belief"`
	Action  int       `json:"action"`
	Value   float64   `json:"value"`
}

// refRoundTrips is the number of round trips in one reference unit.
const refRoundTrips = 4

var (
	refIn   = makeRefDoc()
	refSink float64
)

// makeRefDoc fills the reference document from a fixed linear congruential
// sequence.
func makeRefDoc() refDoc {
	d := refDoc{Episode: 7, Key: "reference-episode-7", Belief: make([]float64, 32), Action: 3, Value: -12.25}
	x := uint64(1)
	for i := range d.Belief {
		x = x*6364136223846793005 + 1442695040888963407
		d.Belief[i] = float64(x>>11) / (1 << 53)
	}
	return d
}

// refUnit runs one reference unit.
func refUnit() {
	for k := 0; k < refRoundTrips; k++ {
		data, err := json.Marshal(&refIn)
		if err != nil {
			panic(err)
		}
		var out refDoc
		if err := json.Unmarshal(data, &out); err != nil {
			panic(err)
		}
		refSink += out.Belief[k]
	}
}

// refNominal is the CPU time of one reference unit on the machine the
// benchmark was sized on (a 2-core virtual machine at its fastest), which
// turns a cost in reference units back into seconds for setup_s.
const refNominal = 100 * time.Microsecond

// costRounds is the least number of rounds a gated service run plays; its
// mean_cost covers the operations of these rounds, so that it does not
// depend on how many more rounds the host's speed allows.
const costRounds = 8

// timeRefUnits runs n reference units and returns their CPU time.
func timeRefUnits(n int) time.Duration {
	c0 := cpuTime()
	for k := 0; k < n; k++ {
		refUnit()
	}
	return cpuTime() - c0
}

// round accumulates one round of timed operations and the reference unit
// run after each.
type round struct {
	work, ref      time.Duration
	ops, decisions int
}

// timeOp runs op, adds its CPU time to the round, then runs one reference
// unit.
func (r *round) timeOp(op func()) {
	c0 := cpuTime()
	op()
	c1 := cpuTime()
	refUnit()
	r.work += c1 - c0
	r.ref += cpuTime() - c1
	r.ops++
}

// add folds o into r.
func (r *round) add(o round) {
	r.work += o.work
	r.ref += o.ref
	r.ops += o.ops
	r.decisions += o.decisions
}

// refCost is the round's work per unit in reference units.
func (r round) refCost(units int) float64 {
	return ratio(float64(r.work)/float64(units), float64(r.ref)/float64(r.ops))
}

// reportCost reports the end-to-end cost metrics: the CPU time of an
// operation and of a decision in reference units, each the median over
// rounds.
func reportCost(rep *report, rounds []round) {
	var perOp, perDec, raw, refUs []float64
	for _, r := range rounds {
		perOp = append(perOp, r.refCost(r.ops))
		perDec = append(perDec, r.refCost(r.decisions))
		raw = append(raw, float64(r.work)/1e3/float64(r.ops))
		refUs = append(refUs, float64(r.ref)/1e3/float64(r.ops))
	}
	rep.set("cpu_per_episode", medianFloat(perOp), "ref")
	rep.set("cpu_per_decision", medianFloat(perDec), "ref")
	rep.notef("CPU cost: medians over %d rounds of %d operations; reference units per operation by round: %.4g",
		len(rounds), rounds[0].ops, perOp)
	rep.notef("raw CPU us per operation by round: %.4g; per reference unit: %.4g", raw, refUs)
}
