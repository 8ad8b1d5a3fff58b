package arachnet_test

// Benchmarks of the paper's evaluation, each timing the path its name
// says:
//
//	F1   BenchmarkPipeline            — the four-agent pipeline end to end, uncached
//	CS1  BenchmarkCaseStudy1          — expert-replication cable impact, uncached
//	CS2  BenchmarkCaseStudy2          — multi-disaster impact, uncached
//	CS3  BenchmarkCaseStudy3          — Europe–Asia cascade, uncached
//	CS4  BenchmarkCaseStudy4          — forensic root cause, uncached
//	A1   BenchmarkRegistryCompactness — planning over compact vs bloated registries
//	A3   BenchmarkCuratorMining       — pattern mining + promotion
//
// The benchmarks after them time the serving paths: warm replays
// (BenchmarkAskWarmCache, and BenchmarkAskObserved and
// BenchmarkAskStreamDrain against it), plan misses over warm steps
// (BenchmarkAskPlanMiss), cache misses (BenchmarkAskColdCache), the
// job queue (BenchmarkSubmitWait; BenchmarkAskBatch lives in
// concurrency_test.go), fleets (BenchmarkAskFleet) and snapshots
// (BenchmarkSaveSnapshot, BenchmarkLoadSnapshot). All run on the small
// world, seed 7, except BenchmarkAskFleet's scale=15 rows.
// cmd/arachnet-bench prints the evaluation tables on the full world,
// and servebench times the served system over HTTP.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"arachnet"
	"arachnet/internal/core"
	"arachnet/internal/netsim"
)

var benchQueries = map[int]string{
	1: "Identify the impact at a country level due to SeaMeWe-5 cable failure",
	2: "Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
	3: "Analyze the cascading effects of submarine cable failures between Europe and Asia",
	4: "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
}

func benchSystem(b *testing.B, scenario bool) *arachnet.System {
	b.Helper()
	opts := []arachnet.Option{arachnet.WithSmallWorld(7)}
	if scenario {
		opts = append(opts, arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}))
	}
	sys, err := arachnet.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchUncached asks query with AskNoCache on every iteration, so
// each one parses, plans, weaves and executes every step.
func benchUncached(b *testing.B, sys *arachnet.System, query string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration(), arachnet.AskNoCache()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCase(b *testing.B, n int, scenario bool) {
	benchUncached(b, benchSystem(b, scenario), benchQueries[n])
}

// BenchmarkPipeline measures Figure 1's full pipeline (parse →
// QueryMind → WorkflowScout → SolutionWeaver → execute), uncached.
func BenchmarkPipeline(b *testing.B) { benchCase(b, 1, false) }

// BenchmarkCaseStudy1 measures the Case Study 1 workflow under the
// paper's restricted registry (core Nautilus functions only).
func BenchmarkCaseStudy1(b *testing.B) {
	benchUncached(b, cs1FleetSystem(b, 7, 0), benchQueries[1])
}

// BenchmarkCaseStudy2 measures the multi-disaster workflow.
func BenchmarkCaseStudy2(b *testing.B) { benchCase(b, 2, false) }

// BenchmarkCaseStudy3 measures the cascading-failure workflow
// (multi-framework integration).
func BenchmarkCaseStudy3(b *testing.B) { benchCase(b, 3, true) }

// BenchmarkCaseStudy4 measures the forensic investigation.
func BenchmarkCaseStudy4(b *testing.B) { benchCase(b, 4, true) }

// BenchmarkRegistryCompactness is the A1 ablation: planning cost over
// the compact builtin registry versus one bloated with irrelevant
// entries — the paper's rationale for capability-level registries over
// full codebase exposure. As in BenchmarkAskPlanMiss, the plan cache is
// off and the steps are warm, so every iteration plans and the steps
// replay from the step cache.
func BenchmarkRegistryCompactness(b *testing.B) {
	for _, size := range []int{0, 100, 400} {
		b.Run(fmt.Sprintf("extra=%d", size), func(b *testing.B) {
			reg := arachnet.BuiltinRegistry()
			for i := 0; i < size; i++ {
				err := reg.Register(arachnet.Capability{
					Name:        fmt.Sprintf("bloat%d.filler", i),
					Framework:   fmt.Sprintf("bloat%d", i%17),
					Description: "an implementation detail that should never be planned over",
					Outputs: []arachnet.Port{{
						Name: "noise",
						Type: arachnet.DataType(fmt.Sprintf("bloat.t%d", i)),
					}},
					Impl: func(c *arachnet.Call) error { return nil },
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			sys, err := arachnet.New(
				arachnet.WithSmallWorld(7), arachnet.WithRegistry(reg),
			)
			if err != nil {
				b.Fatal(err)
			}
			sys.SetCacheLimits(0, arachnet.DefaultStepCacheEntries, arachnet.DefaultStepCacheBytes)
			if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCuratorMining is the A3 experiment: registry evolution cost
// across repeated successful runs.
func BenchmarkCuratorMining(b *testing.B) {
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := arachnet.New(
			arachnet.WithSmallWorld(7), arachnet.WithRegistry(sub.Clone()),
		)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// Curation stays on: registry evolution is what this measures.
		if _, err := sys.Ask(ctx, benchQueries[1]); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-4 cable failure"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskStreamDrain measures the full event path: the same warm
// run as BenchmarkAskWarmCache, consumed by draining AskStream. The
// delta against BenchmarkAskWarmCache is the cost of channel-based
// delivery.
func BenchmarkAskStreamDrain(b *testing.B) {
	sys := benchSystem(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ev := range sys.AskStream(ctx, benchQueries[1], arachnet.AskWithoutCuration()) {
			if d, ok := ev.(*arachnet.Done); ok && d.Err != nil {
				b.Fatal(d.Err)
			}
		}
	}
}

// BenchmarkAskObserved measures the warm run of BenchmarkAskWarmCache
// with a registered (no-op) observer: the inline event path without
// any channel.
func BenchmarkAskObserved(b *testing.B) {
	sys := benchSystem(b, false)
	nop := arachnet.ObserverFunc(func(arachnet.Event) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration(), arachnet.AskObserver(nop)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitWait measures per-job overhead of the async queue
// versus calling Ask directly.
func BenchmarkSubmitWait(b *testing.B) {
	sys := benchSystem(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := sys.Submit(ctx, benchQueries[1], arachnet.AskWithoutCuration())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskWarmCache measures fully memoized serving: the plan
// cache skips the three planning agents and the step cache serves
// every pure step, so this is the repeated-query fast path.
func BenchmarkAskWarmCache(b *testing.B) {
	sys := benchSystem(b, false)
	if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskColdCache measures the cache-miss path: caches enabled
// (so fingerprinting and write-back are paid) but flushed before every
// iteration. The flush runs inside the timed region on purpose —
// clearing the handful of entries one Ask leaves behind costs well
// under a microsecond, whereas excluding it via StopTimer/StartTimer
// would stop the world (ReadMemStats) every iteration and inflate the
// measurement far more than the flush itself. The delta against
// BenchmarkPipeline, the same run uncached, is the memoization
// overhead on a miss.
func BenchmarkAskColdCache(b *testing.B) {
	sys := benchSystem(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SetCacheLimits(0, 0, 0) // flush
		sys.SetCacheLimits(arachnet.DefaultPlanCacheEntries,
			arachnet.DefaultStepCacheEntries, arachnet.DefaultStepCacheBytes)
		if _, err := sys.Ask(ctx, benchQueries[1], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskPlanMiss measures a question the plan cache has not
// seen whose steps the step cache holds — the shape of servebench's
// novel workload: the plan cache is disabled, the four case studies
// rotate, and every step replays from the warm step cache, so the
// time is parsing, planning, the code listing and Compile.
func BenchmarkAskPlanMiss(b *testing.B) {
	sys := benchSystem(b, true)
	sys.SetCacheLimits(0, arachnet.DefaultStepCacheEntries, arachnet.DefaultStepCacheBytes)
	for n := 1; n <= len(benchQueries); n++ {
		if _, err := sys.Ask(ctx, benchQueries[n], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(ctx, benchQueries[1+i%len(benchQueries)], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskFleet times uncached CS1 asks over the restricted CS1
// registry, whose extract_ips → locate_ips chain scatters: inline, on
// in-process fleets of 1 and 4, and on two fleetwire servers on
// loopback (remote=2); then inline against an in-process fleet of 4 on
// the default world at 15x density (10.7x its routers), built without
// a scenario. AskNoCache makes every step execute, so a fleet row pays
// its dispatch on every step it takes; each reports the steps it took
// per op (scattered plus shard-local) as dispatched/op.
func BenchmarkAskFleet(b *testing.B) {
	for _, n := range []int{0, 1, 4} {
		b.Run(fleetRow(n), func(b *testing.B) { benchFleetAsk(b, cs1FleetSystem(b, 7, n)) })
	}
	b.Run("remote=2", func(b *testing.B) {
		cfg := netsim.SmallConfig(7)
		addr0, _ := startWireWorker(b, cfg, 2, 0)
		addr1, _ := startWireWorker(b, cfg, 2, 1)
		benchFleetAsk(b, cs1RemoteSystem(b, 7, []string{addr0, addr1}))
	})
	for _, n := range []int{0, 4} {
		b.Run("scale=15/"+fleetRow(n), func(b *testing.B) {
			env := denseWorld(b)
			sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.NewSystem(env, sub)
			if err != nil {
				b.Fatal(err)
			}
			attachFleet(b, sys, n)
			benchFleetAsk(b, sys)
		})
	}
}

func fleetRow(n int) string {
	if n == 0 {
		return "inline"
	}
	return fmt.Sprintf("fleet=%d", n)
}

func benchFleetAsk(b *testing.B, sys *arachnet.System) {
	benchUncached(b, sys, benchQueries[1])
	if f := sys.Fleet(); f != nil {
		st := f.Stats()
		b.ReportMetric(float64(st.Scattered+st.ShardLocal)/float64(b.N), "dispatched/op")
	}
}

var (
	denseOnce sync.Once
	denseEnv  *arachnet.Environment
	denseErr  error
)

// denseWorld returns the environment of the default world (seed 42)
// with its stub, tier-2 and content densities multiplied by 15, as
// worldgen -scale 15 builds it: 5 838 routers. It is generated once
// per test binary; the rows only read it.
func denseWorld(tb testing.TB) *arachnet.Environment {
	denseOnce.Do(func() {
		cfg := netsim.DefaultConfig(42)
		cfg.StubsPerCountry *= 15
		cfg.Tier2PerRegion *= 15
		cfg.ContentCount *= 15
		denseEnv, denseErr = core.NewEnvironment(cfg)
	})
	if denseErr != nil {
		tb.Fatal(denseErr)
	}
	return denseEnv
}

// snapshotDonor is a system warmed on the four case studies.
func snapshotDonor(b *testing.B) *arachnet.System {
	sys := benchSystem(b, true)
	for n := 1; n <= len(benchQueries); n++ {
		if _, err := sys.Ask(ctx, benchQueries[n], arachnet.AskWithoutCuration()); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

// BenchmarkSaveSnapshot measures writing the snapshot of a system
// warmed on the four case studies; snapshot-bytes is its size.
func BenchmarkSaveSnapshot(b *testing.B) {
	sys := snapshotDonor(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sys.SaveSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
}

// BenchmarkLoadSnapshot measures restoring that snapshot into an
// identically built cold system, the work a restart does before its
// first ask: decode, insert every step, re-plan every query. Each
// iteration flushes both caches first, inside the timed region for the
// reason BenchmarkAskColdCache gives.
func BenchmarkLoadSnapshot(b *testing.B) {
	var buf bytes.Buffer
	if err := snapshotDonor(b).SaveSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	sys := benchSystem(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SetCacheLimits(0, 0, 0) // flush
		sys.SetCacheLimits(arachnet.DefaultPlanCacheEntries,
			arachnet.DefaultStepCacheEntries, arachnet.DefaultStepCacheBytes)
		if err := sys.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
