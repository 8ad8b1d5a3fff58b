package arachnet_test

// Compiled warm path, end to end: a System serving from its plan and
// step caches must answer exactly what an identically seeded System
// computes afresh — across cold asks, warm replays, scenario
// injections and curation promotions, inline and over a fleet — and
// warm asks on every serving path must stay within small allocation
// budgets. A -race hammer then drives concurrent asks through the
// compiled path while promotions and scenario injections advance the
// registry generation and environment epoch underneath.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"arachnet"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/eval"
)

// pairedSystems builds two identically seeded small-world systems,
// each with its own fleet of fleetN workers when fleetN > 0. Tests
// ask the first through its caches and the second with AskNoCache.
func pairedSystems(t *testing.T, seed uint64, fleetN int) (cached, fresh *arachnet.System) {
	t.Helper()
	build := func() *arachnet.System {
		sys, err := arachnet.New(arachnet.WithSmallWorld(seed))
		if err != nil {
			t.Fatal(err)
		}
		attachFleet(t, sys, fleetN)
		return sys
	}
	return build(), build()
}

// TestCachedMatchesFresh is the cached ≡ fresh contract: the same
// sequence of asks (cold, warm, post-injection, re-planned after each
// epoch bump, with curation promoting composites along the way) must
// produce identical values, outputs and quality checks whether served
// from the plan and step caches or computed with AskNoCache. Cached
// flags and provenance legitimately differ and are not compared.
func TestCachedMatchesFresh(t *testing.T) {
	const (
		cs1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
		cs4 = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."
	)
	type action struct {
		label  string
		query  string // "" means inject the scenario instead
		inject uint64
	}
	script := []action{
		{label: "cold cs1", query: cs1},
		{label: "warm cs1", query: cs1},
		{label: "inject scenario", inject: 5},
		{label: "cold cs4 post-injection", query: cs4},
		{label: "warm cs4", query: cs4},
		{label: "cs1 replanned after epoch bump", query: cs1},
		{label: "inject second scenario", inject: 6},
		{label: "cs4 after second injection", query: cs4},
		{label: "cs1 after second injection", query: cs1},
	}
	for _, fleetN := range []int{0, 4} {
		t.Run(fmt.Sprintf("fleet=%d", fleetN), func(t *testing.T) {
			cached, fresh := pairedSystems(t, 42, fleetN)
			for _, a := range script {
				if a.query == "" {
					sc := arachnet.ScenarioConfig{Seed: a.inject}
					for _, sys := range []*arachnet.System{cached, fresh} {
						if err := sys.Environment().InjectCableFailureScenario(sc); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				repC, err := cached.Ask(ctx, a.query)
				if err != nil {
					t.Fatalf("%s (cached): %v", a.label, err)
				}
				repF, err := fresh.Ask(ctx, a.query, arachnet.AskNoCache())
				if err != nil {
					t.Fatalf("%s (fresh): %v", a.label, err)
				}
				jc, jf := answerJSON(t, repC), answerJSON(t, repF)
				if string(jc) != string(jf) {
					t.Errorf("%s: cached and fresh answers differ:\ncached: %s\nfresh:  %s", a.label, jc, jf)
				}
			}
			// Both systems walked the same history, so curation must have
			// promoted identically — the registries stayed in lockstep.
			if cg, fg := cached.Registry().Generation(), fresh.Registry().Generation(); cg != fg {
				t.Errorf("registry generations diverged: cached %d, fresh %d", cg, fg)
			}
		})
	}
}

// TestCachedMatchesFreshCorpus is the cached ≡ fresh contract over
// every question of eval.Corpus: before any scenario and after
// injections 5 and 6, each question asked cold and then warm on the
// cached System must fail, or answer, exactly as AskNoCache does on the
// fresh one. The fresh System always runs inline, so the fleet row
// also holds inline ≡ fleet over the corpus: cached answers from four
// loopback workers against fresh inline ones. It runs only without
// -short.
func TestCachedMatchesFreshCorpus(t *testing.T) {
	for _, fleetN := range []int{0, 4} {
		t.Run(fmt.Sprintf("fleet=%d", fleetN), func(t *testing.T) {
			if fleetN > 0 && testing.Short() {
				t.Skip("the fleet row runs without -short")
			}
			cached, fresh := pairedSystems(t, 42, 0)
			attachFleet(t, cached, fleetN)
			for _, seed := range []uint64{0, 5, 6} {
				if seed != 0 {
					for _, sys := range []*arachnet.System{cached, fresh} {
						if err := sys.Environment().InjectCableFailureScenario(arachnet.ScenarioConfig{Seed: seed}); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, q := range eval.Corpus() {
					for _, pass := range []string{"cold", "warm"} {
						repC, errC := cached.Ask(ctx, q)
						repF, errF := fresh.Ask(ctx, q, arachnet.AskNoCache())
						if fmt.Sprint(errC) != fmt.Sprint(errF) {
							t.Errorf("scenario %d, %s %.60q: cached and fresh errors differ:\ncached: %v\nfresh:  %v", seed, pass, q, errC, errF)
							continue
						}
						if errC != nil {
							continue
						}
						if jc, jf := answerJSON(t, repC), answerJSON(t, repF); string(jc) != string(jf) {
							t.Errorf("scenario %d, %s %.60q: cached and fresh answers differ:\ncached: %s\nfresh:  %s", seed, pass, q, jc, jf)
						}
					}
				}
			}
			if cg, fg := cached.Registry().Generation(), fresh.Registry().Generation(); cg != fg {
				t.Errorf("registry generations diverged: cached %d, fresh %d", cg, fg)
			}
		})
	}
}

// answerJSON renders the parts of a report that must not depend on
// how it was served: every produced value, the declared outputs and
// the quality-check outcomes.
func answerJSON(t *testing.T, rep *arachnet.Report) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Values  map[string]any
		Outputs map[string]any
		Checks  any
	}{rep.Result.Values, rep.Result.Outputs, rep.Result.Checks})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCompiledConcurrentHammer drives concurrent asks through the
// compiled warm path of a fleet-backed system while curation promotes
// composites and scenario injections advance the environment epoch —
// the -race job's compiled workout. Cross-epoch results are not
// comparable; the test asserts every ask succeeds and the caches stay
// coherent, and that a quiet system serves plan-cache hits afterwards.
func TestCompiledConcurrentHammer(t *testing.T) {
	sys, err := arachnet.New(arachnet.WithSmallWorld(42))
	if err != nil {
		t.Fatal(err)
	}
	attachFleet(t, sys, 4)
	queries := []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact at a country level due to SeaMeWe-4 cable failure",
		"Identify the impact at a country level due to AAE-1 cable failure",
	}
	askers, rounds := 8, 5
	if testing.Short() {
		askers, rounds = 4, 2
	}

	var wg sync.WaitGroup
	errc := make(chan error, askers*rounds+rounds)
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := queries[(g+r)%len(queries)]
				// Curation deliberately left on: promotions bump the
				// registry generation mid-hammer, forcing plan-cache
				// invalidation and recompilation under load.
				if _, err := sys.Ask(ctx, q); err != nil {
					errc <- fmt.Errorf("asker %d round %d: %w", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			sc := arachnet.ScenarioConfig{Seed: uint64(200 + r)}
			if err := sys.Environment().InjectCableFailureScenario(sc); err != nil {
				errc <- fmt.Errorf("inject round %d: %w", r, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// Promotions and injections can make every hammer ask miss. With
	// nothing mutating any more, a query asked twice without curation
	// hits on the second ask by construction.
	for i := 0; i < 2; i++ {
		if _, err := sys.Ask(ctx, queries[0], arachnet.AskWithoutCuration()); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.CacheStats()
	if st.Plan.Hits == 0 {
		t.Errorf("no plan-cache hits under the hammer: %+v", st.Plan)
	}
}

// TestWarmAskAllocCeiling pins the allocation budget of a fully warm
// compiled Ask: plan compiled and memoized, every step a cache hit, and
// the plan's memoized Result returned. Compiling re-validates,
// re-resolves and re-hashes the whole plan; a warm replay of the cached
// compiled plan must stay under a budget an order of magnitude below
// that. It measures 1, the Report; the ceiling carries ~2x headroom
// over the measured cost so it catches regressions, not jitter.
func TestWarmAskAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	const query = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	sys, err := arachnet.New(arachnet.WithSmallWorld(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // compile, memoize, warm every step cache
		if _, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration()); err != nil {
			t.Fatal(err)
		}
	}
	avg := allocsPerAsk(t, sys, query, 100)
	t.Logf("warm compiled Ask: %.0f allocs/op", avg)
	const ceiling = 2
	if avg > ceiling {
		t.Errorf("warm compiled Ask allocates %.0f/op, budget %d", avg, ceiling)
	}
}

// TestServedAskAllocCeilings pins the warm allocation budgets of the
// other serving paths: an Ask carrying a no-op AskObserver, which
// builds and delivers every stage and step event inline; an Ask on a
// System attached to a shared Scheduler, which takes a run slot around
// the pipeline — the path HTTP /v1/ask serves through; Submit+Wait,
// the path of HTTP POST /v1/jobs; and a drained AskStream, which sends
// every event over its channel. All replay on the same memoized engine
// as a plain warm Ask, and return its memoized Result. They measure
// 22, 2, 37 and 26; each ceiling carries ~2x headroom over the
// measured cost.
func TestServedAskAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	const query = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	sys, err := arachnet.New(arachnet.WithSmallWorld(42))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	admitted, err := arachnet.New(arachnet.WithSmallWorld(42))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(admitted.Close)
	if err := admitted.SetScheduler(arachnet.NewScheduler(0, 0), "tenant"); err != nil {
		t.Fatal(err)
	}
	nop := arachnet.AskObserver(arachnet.ObserverFunc(func(arachnet.Event) error { return nil }))
	cases := []struct {
		name    string
		ceiling float64
		op      func() error
	}{
		{"observed Ask", 44, func() error {
			_, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration(), nop)
			return err
		}},
		{"scheduler-attached Ask", 4, func() error {
			_, err := admitted.Ask(ctx, query, arachnet.AskWithoutCuration())
			return err
		}},
		{"Submit+Wait", 74, func() error {
			j, err := sys.Submit(ctx, query, arachnet.AskWithoutCuration())
			if err != nil {
				return err
			}
			_, err = j.Wait(ctx)
			return err
		}},
		{"AskStream drain", 52, func() error {
			var done *arachnet.Done
			for ev := range sys.AskStream(ctx, query, arachnet.AskWithoutCuration()) {
				if d, ok := ev.(*arachnet.Done); ok {
					done = d
				}
			}
			if done == nil {
				return fmt.Errorf("stream closed without Done")
			}
			return done.Err
		}},
	}
	for _, c := range cases {
		for i := 0; i < 3; i++ { // compile, memoize, warm every step cache
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		}
		avg := allocsPerOp(t, 100, c.op)
		t.Logf("warm %s: %.0f allocs/op", c.name, avg)
		if avg > c.ceiling {
			t.Errorf("warm %s allocates %.0f/op, budget %.0f", c.name, avg, c.ceiling)
		}
	}
}

// TestCuratedAskAllocCeiling pins the allocation budget of the default
// request in steady state, BenchmarkAskCurated's: a warm CS1 ask with
// curation on, over a history saturated by 600 asks of the four case
// studies. The plan and every step replay from cache, so nearly all of
// it is the curation pass over the full window (ROADMAP item 3). The
// ceiling carries ~2x headroom over the measured cost.
func TestCuratedAskAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	sys := curatedSystem(t)
	avg := allocsPerOp(t, 50, func() error {
		_, err := sys.Ask(ctx, benchQueries[1])
		return err
	})
	t.Logf("warm curated Ask over a saturated history: %.0f allocs/op", avg)
	const ceiling = 10500
	if avg > ceiling {
		t.Errorf("warm curated Ask allocates %.0f/op, budget %d", avg, ceiling)
	}
}

// TestPlanMissAllocCeiling pins the allocation budget of an Ask that
// misses the plan cache while the step cache serves every step: what
// a question never asked before costs once its steps are warm — the
// parse, the three planning agents, Compile and a fully cached run.
// With the plan cache disabled every ask plans afresh. Averaged over
// the four case studies it measures about 64 allocs (about 69 while
// Weave rendered the listing, 87 while every planned step built a map
// of its inputs); the ceiling, about twice that, stays far below the
// ~290 that planning each candidate from scratch, building QueryMind's
// tables per call and laying out Compile's tables per step cost.
func TestPlanMissAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	sys, err := arachnet.New(arachnet.WithSmallWorld(42), arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetCacheLimits(0, arachnet.DefaultStepCacheEntries, arachnet.DefaultStepCacheBytes)
	ask := func() error {
		for _, q := range benchQueries {
			if _, err := sys.Ask(ctx, q, arachnet.AskWithoutCuration()); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 2; i++ { // warm every step cache
		if err := ask(); err != nil {
			t.Fatal(err)
		}
	}
	avg := allocsPerOp(t, 25, ask) / float64(len(benchQueries))
	t.Logf("plan-miss Ask over warm steps: %.0f allocs/op", avg)
	if st := sys.CacheStats(); st.Plan.Hits != 0 {
		t.Fatalf("%d plan-cache hits; every ask must miss", st.Plan.Hits)
	}
	const ceiling = 128
	if avg > ceiling {
		t.Errorf("plan-miss Ask allocates %.0f/op, budget %d", avg, ceiling)
	}
}

// TestDesignAllocCeiling pins the allocations of WorkflowScout.Design,
// the planning stage of a plan miss, per case study on the builtin
// registry: CS1–CS4 measure 10 / 12 / 27 / 32 (17 / 17 / 55 / 66 while
// every planned step built a map of its inputs), and each ceiling is
// about twice its figure. It runs only without -short.
func TestDesignAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	sys, err := arachnet.New(arachnet.WithSmallWorld(42), arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	scout := workflowscout.New()
	for i, ceiling := range []float64{20, 24, 54, 64} {
		n := i + 1
		rep, err := sys.Ask(ctx, benchQueries[n], arachnet.AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := scout.Design(rep.Problem, sys.Registry()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("CS%d: Design %.0f allocs/op", n, allocs)
		if allocs > ceiling {
			t.Errorf("CS%d: Design allocates %.0f/op, budget %.0f", n, allocs, ceiling)
		}
	}
}

// TestWeaveAllocCeiling pins SolutionWeaver.Weave, the last planning
// stage of a plan miss, per case study on the builtin registry: CS1–CS4
// measure 5 / 2 / 5 / 6 allocs and 304 / 144 / 304 / 416 B, and each
// alloc ceiling is about twice its figure. Weave renders no listing (a
// Solution renders one whenever it is read), so every call stays under
// 1 kB, below the shortest case study's listing (4.2 kB); rendering the
// listing in Weave cost 9 / 6 / 9 / 10 allocs and 5.1–8.8 kB. It runs
// only without -short.
func TestWeaveAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	sys, err := arachnet.New(arachnet.WithSmallWorld(42), arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	weaver := solutionweaver.New()
	for i, ceiling := range []float64{10, 4, 10, 12} {
		n := i + 1
		rep, err := sys.Ask(ctx, benchQueries[n], arachnet.AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		weave := func() error {
			_, err := weaver.Weave(rep.Design.Chosen, sys.Registry())
			return err
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := weave(); err != nil {
				t.Fatal(err)
			}
		})
		size := bytesPerOp(t, 50, weave)
		t.Logf("CS%d: Weave %.0f allocs/op, %.0f B/op", n, allocs, size)
		if allocs > ceiling {
			t.Errorf("CS%d: Weave allocates %.0f/op, budget %.0f", n, allocs, ceiling)
		}
		const byteCeiling = 1 << 10
		if size > byteCeiling {
			t.Errorf("CS%d: Weave allocates %.0f B/op, budget %d", n, size, byteCeiling)
		}
	}
}

// allocsPerAsk measures mean heap allocations per warm curation-free
// Ask.
func allocsPerAsk(t *testing.T, sys *arachnet.System, query string, runs int) float64 {
	t.Helper()
	return allocsPerOp(t, runs, func() error {
		_, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration())
		return err
	})
}

// allocsPerOp measures mean heap allocations per call of op. The
// pipeline runs steps (and jobs) on other goroutines, so this uses a
// whole-process Mallocs delta (like ReadMemStats-based benchmarks)
// rather than testing.AllocsPerRun's current-goroutine accounting.
func allocsPerOp(t *testing.T, runs int, op func() error) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// bytesPerOp is allocsPerOp's count of bytes: the mean heap bytes
// allocated per call of op, over the whole process.
func bytesPerOp(t *testing.T, runs int, op func() error) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
