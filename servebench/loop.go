package main

import (
	"slices"
	"sync"
	"time"
	"unsafe"
)

// maxClients is the closed-loop client count: one per CPU of the
// two-CPU machine the benchmark was sized on.
const maxClients = 2

// recorder collects one client's samples. Each client owns one, so
// recording takes no lock.
type recorder struct {
	lat       []time.Duration // one per sample
	at        []time.Time     // each sample's completion time
	attempted int
	failed    int
	// mismatched counts completed ops whose outputs differ from the
	// reference; they are failures and make the run incorrect.
	mismatched int
	firstErr   string
	tr         *traceAcc // non-nil in a traced phase
}

// sample records one op latency completed now.
func (r *recorder) sample(lat time.Duration) {
	r.lat = append(r.lat, lat)
	r.at = append(r.at, time.Now())
}

func (r *recorder) fail(why string) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = why
	}
}

// merge folds other into r.
func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.at = append(r.at, o.at...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatched += o.mismatched
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	if o.tr != nil {
		if r.tr == nil {
			r.tr = newTraceAcc()
		}
		r.tr.merge(o.tr)
	}
}

// sampleCap is each client's preallocated sample capacity: enough for
// a 45 s phase at 5800 ops/s per client (warm reaches about 5000), so a
// timed phase does not grow its buffers while it measures allocations.
const sampleCap = 1 << 18

func newRecorder(traced bool) *recorder {
	r := &recorder{lat: make([]time.Duration, 0, sampleCap), at: make([]time.Time, 0, sampleCap)}
	if traced {
		r.tr = newTraceAcc()
	}
	return r
}

// footprint is the heap the recorder's sample buffers hold.
func (r *recorder) footprint() uint64 {
	return uint64(cap(r.lat))*uint64(unsafe.Sizeof(time.Duration(0))) + uint64(cap(r.at))*uint64(unsafe.Sizeof(time.Time{}))
}

// closedLoop runs one goroutine per recorder; each issues its next op
// as soon as the previous one completes, until dur has passed. It
// returns the time from start to the last completion.
func closedLoop(recs []*recorder, dur time.Duration, op func(client int, rec *recorder)) time.Duration {
	ends := make([]time.Time, len(recs))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(c, recs[c])
			}
			ends[c] = time.Now()
		}()
	}
	wg.Wait()
	last := start
	for _, end := range ends {
		if end.After(last) {
			last = end
		}
	}
	return last.Sub(start)
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedCopy returns the samples in ascending order.
func sortedCopy(lat []time.Duration) []time.Duration {
	s := slices.Clone(lat)
	slices.Sort(s)
	return s
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	return quantile(sortedCopy(ds), 0.5)
}
