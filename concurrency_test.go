package arachnet_test

// Concurrency contract of the redesigned Ask API: one System built
// once serves many goroutines (the ROADMAP's serving scenario), and a
// warm AskBatch costs no more than asking its queries back to back.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"arachnet"
)

// caseQueries are the paper's four case-study queries; all are
// feasible once the measurement scenario is injected.
var caseQueries = []string{
	"Identify the impact at a country level due to SeaMeWe-5 cable failure",
	"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
	"Analyze the cascading effects of submarine cable failures between Europe and Asia",
	"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
}

func sharedSystem(tb testing.TB) *arachnet.System {
	tb.Helper()
	sys, err := arachnet.New(
		arachnet.WithSmallWorld(7),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}),
	)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestConcurrentAskSharedSystem hammers one shared System with 32
// concurrent Asks with curation ON, so curator writes to the registry
// race planner reads if the locking is wrong. Run under -race this is
// the API's central safety claim.
func TestConcurrentAskSharedSystem(t *testing.T) {
	sys := sharedSystem(t)
	const callers = 32
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := sys.Ask(ctx, caseQueries[i%len(caseQueries)])
			if err != nil {
				errs[i] = err
				return
			}
			if rep.Result == nil || len(rep.Result.Outputs) == 0 {
				errs[i] = errors.New("empty result")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	// Repeated successful runs of the same shapes must have evolved the
	// registry (curation stayed on throughout the hammering).
	if len(sys.Promotions()) == 0 {
		t.Error("no composite promoted after 32 curated runs")
	}
	if got := len(sys.History()); got != callers {
		t.Errorf("history records %d runs, want %d", got, callers)
	}
}

// TestConcurrentMixedModes interleaves expert-reviewed, uncurated and
// deadline-bound calls on one System: per-call options must not bleed
// across concurrent requests.
func TestConcurrentMixedModes(t *testing.T) {
	sys := sharedSystem(t)
	var wg sync.WaitGroup
	var mu sync.Mutex
	reviewed := 0
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var opts []arachnet.AskOption
			switch i % 3 {
			case 0:
				opts = append(opts, arachnet.AskExpert(func(string, any) error {
					mu.Lock()
					reviewed++
					mu.Unlock()
					return nil
				}))
			case 1:
				opts = append(opts, arachnet.AskWithoutCuration())
			case 2:
				opts = append(opts, arachnet.AskTimeout(time.Minute))
			}
			if _, err := sys.Ask(ctx, caseQueries[0], opts...); err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if reviewed == 0 {
		t.Error("expert hooks never fired")
	}
}

func TestAskBatchAlignsReports(t *testing.T) {
	sys := sharedSystem(t)
	queries := []string{
		caseQueries[0],
		"please enumerate all the things", // rejected as too generic
		caseQueries[1],
	}
	reports, err := sys.AskBatch(ctx, queries)
	if err == nil {
		t.Fatal("batch with a rejected query must return an error")
	}
	if len(reports) != len(queries) {
		t.Fatalf("reports = %d, want %d", len(reports), len(queries))
	}
	if reports[0] == nil || reports[0].Result == nil {
		t.Error("good query 0 lost its report")
	}
	if reports[2] == nil || reports[2].Result == nil {
		t.Error("good query 2 lost its report")
	}
	var pe *arachnet.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PipelineError in chain", err)
	}
	if !strings.Contains(pe.Query, "enumerate") {
		t.Errorf("PipelineError.Query = %q, want the rejected query", pe.Query)
	}
	for i, rep := range reports {
		if rep == nil || rep.Elapsed <= 0 {
			t.Errorf("report %d missing Elapsed", i)
		}
	}
}

// TestAskBatchWarmAllocs pins what a warm AskBatch adds to its asks.
// Distinct queries whose plan is cached run inline on the caller, so
// after warming, a batch of the four case studies allocates at most
// what four warm Asks do plus a small constant for the batch's own
// bookkeeping; fanning the hits out over worker goroutines costs more
// than that. Wall-clock numbers come from BenchmarkAskBatch and
// BenchmarkAskSequential.
func TestAskBatchWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	sys := sharedSystem(t)
	noCurate := arachnet.AskWithoutCuration()
	for i := 0; i < 2; i++ { // plan, then fill every step cache
		if _, err := sys.AskBatch(ctx, caseQueries, noCurate); err != nil {
			t.Fatal(err)
		}
	}
	hits := sys.CacheStats().Plan.Hits
	if _, err := sys.AskBatch(ctx, caseQueries, noCurate); err != nil {
		t.Fatal(err)
	}
	if got := sys.CacheStats().Plan.Hits - hits; got != int64(len(caseQueries)) {
		t.Errorf("a warm batch of %d counted %d plan hits, want one per query", len(caseQueries), got)
	}
	sequential := allocsPerOp(t, 100, func() error {
		for _, q := range caseQueries {
			if _, err := sys.Ask(ctx, q, noCurate); err != nil {
				return err
			}
		}
		return nil
	})
	batch := allocsPerOp(t, 100, func() error {
		_, err := sys.AskBatch(ctx, caseQueries, noCurate)
		return err
	})
	t.Logf("four warm Asks %.1f allocs, warm AskBatch %.1f allocs", sequential, batch)
	const overhead = 8
	if batch > sequential+overhead {
		t.Errorf("warm AskBatch allocates %.1f/op, budget four warm Asks (%.1f) + %d", batch, sequential, overhead)
	}
}

// BenchmarkAskSequential and BenchmarkAskBatch report the wall clock of
// four warm asks in sequence and as one batch.
func BenchmarkAskSequential(b *testing.B) {
	sys := sharedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range caseQueries {
			if _, err := sys.Ask(ctx, q, arachnet.AskWithoutCuration()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAskBatch(b *testing.B) {
	sys := sharedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AskBatch(ctx, caseQueries, arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}
