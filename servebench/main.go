// Command servebench is ArachNet's served-system benchmark. It starts
// the real serving deployment inside its own process (serve.Server on a
// loopback listener), drives it with one of four seeded traffic mixes
// from closed-loop in-process clients, checks every answer against a
// no-cache reference, and prints the end-to-end metrics — or, with
// --trace 1, a per-layer breakdown of the same op sequence. The last
// line of standard output is one JSON object; see README.md.
//
// Usage:
//
//	servebench --workload warm|novel|curated|monitor --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// processStart approximates process start: package variables are
// initialised before main runs.
var processStart = time.Now()

// setUpsAround is how many fresh deployments are built and torn down
// before, and again after, the measured one.
const setUpsAround = 4

// preflightOps is how many ops of the workload run, checked, before
// timing starts.
const preflightOps = 8

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "traffic mix: warm, novel, curated or monitor")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: query order, phrasing and injection seeds")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// run sets the workload up, checks it, measures it and returns the
// result line; progress and the human-readable report go to w.
func run(o options, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "servebench: workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	refStart := time.Now()
	ref, err := newReference()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refTime := time.Since(refStart)

	// Set-up is timed on nine fresh deployments, four torn down before
	// the measured one is built and four built after it is measured, so
	// the median is not one moment's reading.
	var setups []time.Duration
	setUpTimed := func() (*deployment, mix, error) {
		start := time.Now()
		if len(setups) == 0 {
			// From process start, less the reference computation.
			start = processStart.Add(refTime)
		}
		d, mx, err := setUp(o.workload, ref, o.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		return d, mx, nil
	}
	discard := func(n int) error {
		for range n {
			d, mx, err := setUpTimed()
			if err != nil {
				return err
			}
			if err := tearDown(d, mx); err != nil {
				return fmt.Errorf("tear-down: %w", err)
			}
		}
		return nil
	}
	if err := discard(setUpsAround); err != nil {
		return nil, err
	}
	d, mx, err := setUpTimed()
	if err != nil {
		return nil, err
	}
	res, err := measure(o, d, mx, w)
	if errTD := tearDown(d, mx); err == nil && errTD != nil {
		err = fmt.Errorf("tear-down: %w", errTD)
	}
	if err != nil || o.trace {
		return res, err
	}
	if err := discard(setUpsAround); err != nil {
		return nil, err
	}
	setupS := medianDuration(setups).Seconds()
	fmt.Fprintf(w, "set-up of %d fresh deployments: %v (reference %v, excluded)\n",
		len(setups), roundAll(setups), refTime.Round(time.Millisecond))
	fmt.Fprintf(w, "%-14s %14.4f s\n", "setup_s", setupS)
	res.Metrics["setup_s"] = metric{setupS, "s"}
	return res, nil
}

// setUp builds a fresh deployment and brings it to the workload's
// steady state.
func setUp(workload string, ref *reference, seed uint64) (*deployment, mix, error) {
	d, err := newDeployment()
	if err != nil {
		return nil, nil, err
	}
	mx, err := newMix(workload, d, ref, seed)
	if err == nil {
		err = mx.warmUp()
		if err != nil {
			mx.close()
		}
	}
	if err != nil {
		return nil, nil, errors.Join(err, d.close())
	}
	return d, mx, nil
}

func tearDown(d *deployment, mx mix) error {
	mx.close()
	return d.close()
}

// measure runs the pre-flight and then the untraced or traced phases.
// The pre-flight stops the run on an op that does not complete; an
// answer that differs from the reference is a result, reported here
// and counted as a failed op when timed.
func measure(o options, d *deployment, mx mix, w io.Writer) (*result, error) {
	pre := &recorder{}
	for range preflightOps {
		r := &recorder{}
		mx.op(0, r)
		if r.failed > r.mismatched {
			return nil, fmt.Errorf("pre-flight: %s", r.firstErr)
		}
		pre.merge(r)
	}
	if pre.mismatched > 0 {
		fmt.Fprintf(w, "pre-flight: %d of %d ops answered differently from the reference, first: %s\n",
			pre.mismatched, preflightOps, pre.firstErr)
	}
	dur := time.Duration(o.seconds) * time.Second
	if o.trace {
		return traced(o, d, mx, dur, w)
	}
	ph, err := timedPhase(mx, dur, false)
	if err != nil {
		return nil, err
	}
	ph.report(w)
	return ph.result(ph.endToEnd()), nil
}

// phase is the outcome of one timed phase.
type phase struct {
	rec        *recorder
	sorted     []time.Duration
	byTime     []time.Duration // latencies in completion order
	elapsed    time.Duration
	completed  int
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	liveHeap   uint64
}

// timedPhase runs the workload's closed loop for dur and records
// latency, throughput, allocation and heap figures.
func timedPhase(mx mix, dur time.Duration, traced bool) (*phase, error) {
	recs := make([]*recorder, mx.clients())
	for c := range recs {
		recs[c] = newRecorder(traced)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	elapsed := closedLoop(recs, dur, mx.op)
	runtime.ReadMemStats(&after)
	rec := &recorder{}
	for _, r := range recs {
		rec.merge(r)
	}
	clear(recs)
	if err := mx.finish(rec); err != nil {
		return nil, err
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	ph := &phase{
		rec:        rec,
		sorted:     sortedCopy(rec.lat),
		byTime:     inCompletionOrder(rec),
		elapsed:    elapsed,
		completed:  rec.attempted - rec.failed,
		mallocs:    after.Mallocs - before.Mallocs,
		totalAlloc: after.TotalAlloc - before.TotalAlloc,
		numGC:      after.NumGC - before.NumGC,
		// The benchmark's own latency samples are not the system's.
		liveHeap: live.HeapAlloc - rec.footprint(),
	}
	if ph.completed < 1 || len(ph.sorted) == 0 {
		return nil, fmt.Errorf("no op completed: %d attempted, first failure: %s", rec.attempted, rec.firstErr)
	}
	return ph, nil
}

// inCompletionOrder returns the recorded latencies ordered by when
// each op completed.
func inCompletionOrder(r *recorder) []time.Duration {
	idx := make([]int, len(r.lat))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return r.at[a].Compare(r.at[b]) })
	out := make([]time.Duration, len(idx))
	for i, j := range idx {
		out[i] = r.lat[j]
	}
	return out
}

// tailChunk is the fewest samples a p99 is read from: 10 of them lie
// beyond it.
const tailChunk = 1100

// tailChunks splits the samples, in completion order, into as many
// consecutive chunks of at least tailChunk samples as they fill (at
// least one), each sorted.
func (ph *phase) tailChunks() [][]time.Duration {
	k := max(1, len(ph.byTime)/tailChunk)
	size := len(ph.byTime) / k
	chunks := make([][]time.Duration, k)
	for i := range k {
		end := (i + 1) * size
		if i == k-1 {
			end = len(ph.byTime)
		}
		chunks[i] = sortedCopy(ph.byTime[i*size : end])
	}
	return chunks
}

// p99 is the median of the chunks' 99th percentiles: a stall that
// covers a minority of the run moves it less than it moves the p99 of
// all samples.
func (ph *phase) p99() time.Duration {
	var p99s []time.Duration
	for _, c := range ph.tailChunks() {
		p99s = append(p99s, quantile(c, 0.99))
	}
	return medianDuration(p99s)
}

// beyondP99 is the fewest samples any chunk has beyond its p99.
func (ph *phase) beyondP99() int {
	fewest := len(ph.byTime)
	for _, c := range ph.tailChunks() {
		p99, n := quantile(c, 0.99), 0
		for j := len(c) - 1; j >= 0 && c[j] > p99; j-- {
			n++
		}
		fewest = min(fewest, n)
	}
	return fewest
}

func (ph *phase) endToEnd() map[string]metric {
	ops := float64(ph.completed)
	return map[string]metric{
		"p50_ms":        {ms(quantile(ph.sorted, 0.5)), "ms"},
		"p99_ms":        {ms(ph.p99()), "ms"},
		"ops_per_s":     {ops / ph.elapsed.Seconds(), "1/s"},
		"allocs_per_op": {float64(ph.mallocs) / ops, "count"},
		"bytes_per_op":  {float64(ph.totalAlloc) / ops, "B"},
		"live_heap_mb":  {float64(ph.liveHeap) / (1 << 20), "MB"},
	}
}

func (ph *phase) result(m map[string]metric) *result {
	return &result{
		Correct:   ph.rec.mismatched == 0,
		Attempted: ph.rec.attempted,
		Failed:    ph.rec.failed,
		Metrics:   m,
	}
}

// report prints the phase's end-to-end figures with their units.
func (ph *phase) report(w io.Writer) {
	r := ph.rec
	fmt.Fprintf(w, "ops: %d attempted, %d failed (%d output mismatches)\n", r.attempted, r.failed, r.mismatched)
	if r.firstErr != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.firstErr)
	}
	fmt.Fprintf(w, "samples: %d over %.3f s in %d chunks, at least %d beyond each chunk's p99\n",
		len(ph.sorted), ph.elapsed.Seconds(), len(ph.tailChunks()), ph.beyondP99())
	if ph.beyondP99() < 10 {
		fmt.Fprintf(w, "warning: fewer than 10 samples beyond p99; p99_ms is not resolved by this run length\n")
	}
	m := ph.endToEnd()
	// fail_ratio is printed but is no result-line metric: the line
	// carries attempted and failed, and only curated fails by design.
	m["fail_ratio"] = metric{float64(r.failed) / float64(r.attempted), "ratio"}
	for _, name := range []string{"p50_ms", "p99_ms", "ops_per_s", "allocs_per_op", "bytes_per_op", "fail_ratio", "live_heap_mb"} {
		fmt.Fprintf(w, "%-14s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(100 * time.Microsecond)
	}
	return out
}
