package core

// Memoized-serving contract: repeat queries hit the plan cache and the
// step cache, AskNoCache bypasses both, a curation promotion (registry
// generation bump) invalidates cached plans before the next Ask, and
// the whole arrangement stays coherent under concurrent promotion.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// cs1System builds a System over the restricted CS1 registry, where
// repeated cable-impact queries reliably trigger a promotion.
func cs1System(t testing.TB) *System {
	t.Helper()
	sub, err := BuiltinRegistry().Subset(CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(testEnv(t, false), sub)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRepeatAskHitsPlanAndStepCaches(t *testing.T) {
	sys, err := NewSystem(testEnv(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sys.Ask(ctx, queryCS1, AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Ask(ctx, queryCS1, AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Design != r2.Design || r1.Solution != r2.Solution {
		t.Error("repeat Ask did not share the memoized plan")
	}
	st := sys.CacheStats()
	if st.Plan.Hits < 1 {
		t.Errorf("plan hits = %d, want >= 1", st.Plan.Hits)
	}
	if st.Step.Hits < 1 {
		t.Errorf("step hits = %d, want >= 1", st.Step.Hits)
	}
	cached := 0
	for _, s := range r2.Result.Steps {
		if s.Cached {
			cached++
		}
	}
	if cached != len(r2.Result.Steps) {
		t.Errorf("warm run served %d/%d steps from cache", cached, len(r2.Result.Steps))
	}
	// Cached and fresh executions must agree on outputs.
	for name, v := range r1.Result.Outputs {
		if fmt.Sprint(r2.Result.Outputs[name]) != fmt.Sprint(v) {
			t.Errorf("output %q differs between cold and warm runs", name)
		}
	}
}

func TestCachedRunEmitsCachedFlaggedEvents(t *testing.T) {
	sys, err := NewSystem(testEnv(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Ask(ctx, queryCS1, AskWithoutCuration()); err != nil {
		t.Fatal(err)
	}
	var stages, cachedStages, steps, cachedSteps int
	obs := ObserverFunc(func(ev Event) error {
		switch ev := ev.(type) {
		case *StageCompleted:
			if ev.Stage != StageResult && ev.Stage != StageCuration {
				stages++
				if ev.Cached {
					cachedStages++
				}
			}
		case *StepCompleted:
			steps++
			if ev.Cached {
				cachedSteps++
			}
		}
		return nil
	})
	if _, err := sys.Ask(ctx, queryCS1, AskWithoutCuration(), AskObserver(obs)); err != nil {
		t.Fatal(err)
	}
	if stages != 3 || cachedStages != 3 {
		t.Errorf("planning stages = %d (cached %d), want 3 cached 3", stages, cachedStages)
	}
	if steps == 0 || cachedSteps != steps {
		t.Errorf("steps = %d, cached = %d; want all cached", steps, cachedSteps)
	}
}

func TestAskNoCacheBypasses(t *testing.T) {
	sys, err := NewSystem(testEnv(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sys.Ask(ctx, queryCS1, AskWithoutCuration(), AskNoCache())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Ask(ctx, queryCS1, AskWithoutCuration(), AskNoCache())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Design == r2.Design {
		t.Error("AskNoCache shared a memoized plan")
	}
	for _, s := range r2.Result.Steps {
		if s.Cached {
			t.Errorf("AskNoCache served step %s from cache", s.ID)
		}
	}
	st := sys.CacheStats()
	if st.Plan.Hits != 0 || st.Plan.Misses != 0 || st.Plan.Entries != 0 {
		t.Errorf("AskNoCache touched the plan cache: %+v", st.Plan)
	}
	if st.Step.Hits != 0 || st.Step.Entries != 0 {
		t.Errorf("AskNoCache touched the step cache: %+v", st.Step)
	}
}

func TestSetCacheLimitsDisables(t *testing.T) {
	sys, err := NewSystem(testEnv(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetCacheLimits(0, 0, 0)
	r1, err := sys.Ask(ctx, queryCS1, AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Ask(ctx, queryCS1, AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Design == r2.Design {
		t.Error("disabled plan cache still shared a plan")
	}
	if st := sys.CacheStats(); st.Plan.Entries != 0 || st.Step.Entries != 0 {
		t.Errorf("disabled caches hold entries: %+v", st)
	}
}

// TestPromotionInvalidatesCachedPlans is the invalidation acceptance
// test: a curation promotion bumps the registry generation, so the
// next Ask of an already-cached query must re-plan against the grown
// catalog (and pick up the composite) instead of being served the
// stale pre-promotion plan.
func TestPromotionInvalidatesCachedPlans(t *testing.T) {
	sys := cs1System(t)
	gen0 := sys.Registry().Generation()

	r1, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Design != r1.Design {
		t.Fatal("plan cache not warm before promotion")
	}

	// A second distinct cable query gives the shared pattern support 2:
	// the curator promotes and the generation moves.
	r2, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-4 cable failure")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Promotions) == 0 {
		t.Fatal("expected a promotion; the invalidation scenario needs one")
	}
	if g := sys.Registry().Generation(); g <= gen0 {
		t.Fatalf("generation = %d after promotion, want > %d", g, gen0)
	}

	r3, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Design == r1.Design {
		t.Fatal("stale pre-promotion plan served after the registry evolved")
	}
	usesComposite := false
	for _, name := range r3.Design.Chosen.CapabilityNames() {
		if c, err := sys.Registry().Get(name); err == nil && c.Composite {
			usesComposite = true
		}
	}
	if !usesComposite {
		t.Error("re-planned design ignores the freshly promoted composite")
	}
}

// TestPromotionKeepsStepCache: a composite stands for its chain's
// steps, so a plan through it runs under the fingerprints the plan
// before the promotion cached. Re-asking the first question after a
// promotion plans through a composite and executes no step.
func TestPromotionKeepsStepCache(t *testing.T) {
	sys := cs1System(t)
	if _, err := sys.Ask(ctx, queryCS1); err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-4 cable failure")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Promotions) == 0 {
		t.Fatal("expected a promotion; the scenario needs one")
	}
	r3, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	usesComposite := false
	for _, name := range r3.Design.Chosen.CapabilityNames() {
		if c, err := sys.Registry().Get(name); err == nil && c.Composite {
			usesComposite = true
		}
	}
	if !usesComposite {
		t.Fatalf("the re-asked plan ignores the composite: %v", r3.Design.Chosen.CapabilityNames())
	}
	executed := 0
	for _, st := range r3.Result.Steps {
		if !st.Cached {
			executed++
		}
	}
	if executed != 0 {
		t.Errorf("re-asking after the promotion executed %d of %d steps, want 0", executed, len(r3.Result.Steps))
	}
}

func TestAskBatchSingleflight(t *testing.T) {
	sys, err := NewSystem(testEnv(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Disable caching so pipeline runs are observable 1:1 — the
	// deduplication under test is AskBatch's, not the plan cache's.
	sys.SetCacheLimits(0, 0, 0)
	var runs atomic.Int64
	obs := ObserverFunc(func(ev Event) error {
		if st, ok := ev.(*StageStarted); ok && st.Stage == StageProblem {
			runs.Add(1)
		}
		return nil
	})
	queries := []string{queryCS1, queryCS1, queryCS2, queryCS1, queryCS2}
	reports, err := sys.AskBatch(ctx, queries, AskWithoutCuration(), AskObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("pipeline ran %d times for 2 distinct queries", n)
	}
	if reports[0] != reports[1] || reports[0] != reports[3] {
		t.Error("duplicate queries do not share one Report")
	}
	if reports[2] != reports[4] {
		t.Error("second duplicate group does not share one Report")
	}
	if reports[0] == reports[2] {
		t.Error("distinct queries share a Report")
	}
	for i, r := range reports {
		if r == nil || r.Query != queries[i] {
			t.Errorf("report %d misaligned", i)
		}
	}
}

// TestConcurrentPromotionNeverServesStalePlans hammers one System with
// concurrent promotion-triggering Asks (curation on) and verifies,
// under -race, that every served design validates against the live
// registry and that after the dust settles a fresh Ask plans with the
// promoted composite — i.e. no caller was handed a plan from before a
// generation it observed.
func TestConcurrentPromotionNeverServesStalePlans(t *testing.T) {
	sys := cs1System(t)
	cables := []string{"SeaMeWe-5", "SeaMeWe-4", "AAE-1"}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(cables)*rounds)
	for r := 0; r < rounds; r++ {
		for _, c := range cables {
			wg.Add(1)
			go func(c string) {
				defer wg.Done()
				q := fmt.Sprintf("Identify the impact at a country level due to %s cable failure", c)
				rep, err := sys.Ask(ctx, q)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", c, err)
					return
				}
				if err := rep.Design.Chosen.Validate(sys.Registry()); err != nil {
					errs <- fmt.Errorf("%s: served design invalid: %w", c, err)
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(sys.Promotions()) == 0 {
		t.Fatal("hammer produced no promotion; scenario lost its teeth")
	}
	rep, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-5 cable failure")
	if err != nil {
		t.Fatal(err)
	}
	usesComposite := false
	for _, name := range rep.Design.Chosen.CapabilityNames() {
		if c, err := sys.Registry().Get(name); err == nil && c.Composite {
			usesComposite = true
		}
	}
	if !usesComposite {
		t.Error("post-hammer plan ignores the promoted composite")
	}
}
