package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples is a goroutine-safe list of durations.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (s *samples) sorted() []int64 {
	s.mu.Lock()
	out := append([]int64(nil), s.ns...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

// quantile reads the nearest-rank quantile q of an ascending slice; 0 when
// empty.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// medianFloat returns the median of xs (mean of the middle pair for even
// lengths); 0 when empty.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics plus human-readable notes (sample counts,
// check outcomes) printed above the JSON line.
type report struct {
	res   result
	notes []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.notef("metric %s is %v; reported as 0", name, v)
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect; the process then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.notef("CHECK FAILED: "+format, args...)
}

// write prints the notes, one "name value unit" line per metric, and the
// JSON result as the last line.
func (r *report) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Fprintf(w, "%-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// slice is one part of a traced run's untraced work: a table1_bounded
// chunk, or a share of a service workload's window. The wall figures are
// medians over slices, so one disturbed stretch of a run moves them little.
type slice struct {
	secs      float64
	ops       int     // completed operations (episodes or batch requests)
	decisions int     // actions returned (beliefs decided in service_batch)
	opNs      []int64 // per-operation wall time
	decNs     []int64 // per-decision latency
}

// reportWall reports throughput and latency percentiles in wall time as
// medians over slices, with the sample counts behind them.
func reportWall(rep *report, slices []slice) {
	var eps, dps, d50, d90, e50, e90 []float64
	minOps, minDec := math.MaxInt, math.MaxInt
	for _, s := range slices {
		eps = append(eps, float64(s.ops)/s.secs)
		dps = append(dps, float64(s.decisions)/s.secs)
		d, e := sortedNs(s.decNs), sortedNs(s.opNs)
		d50 = append(d50, us(quantile(d, 0.50)))
		d90 = append(d90, us(quantile(d, 0.90)))
		e50 = append(e50, ms(quantile(e, 0.50)))
		e90 = append(e90, ms(quantile(e, 0.90)))
		minOps, minDec = min(minOps, len(e)), min(minDec, len(d))
	}
	rep.set("wall.episodes_per_s", medianFloat(eps), "1/s")
	rep.set("wall.decisions_per_s", medianFloat(dps), "1/s")
	rep.set("wall.decision_p50_us", medianFloat(d50), "us")
	rep.set("wall.decision_p90_us", medianFloat(d90), "us")
	rep.set("wall.episode_p50_ms", medianFloat(e50), "ms")
	rep.set("wall.episode_p90_ms", medianFloat(e90), "ms")
	rep.notef("wall figures: medians over %d slices; each slice has at least %d operation and %d decision samples",
		len(slices), minOps, minDec)
	rep.notef("operations per wall second by slice: %.4g", eps)
}

// windowSlices splits a window into windowSliceCount equal slices.
func windowSlices(win window) []slice {
	out := make([]slice, windowSliceCount)
	for i := range out {
		out[i].secs = win.seconds() / windowSliceCount
	}
	return out
}

// sliceOf returns the slice of an operation that ran from start to end, or
// nil if it did not run wholly inside the window.
func sliceOf(win window, slices []slice, start, end time.Time) *slice {
	if !win.holds(start, end) {
		return nil
	}
	i := int(float64(len(slices)) * end.Sub(win.from).Seconds() / win.seconds())
	return &slices[min(max(i, 0), len(slices)-1)]
}

// cpuTime is the process's CPU time, user and system, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB is the Go heap that survives a full collection: what the
// workload's deployments retain.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
