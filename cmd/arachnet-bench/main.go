// Command arachnet-bench regenerates the paper's evaluation artifacts:
// the four case studies (agent vs expert comparison), the generated-LoC
// table, the adaptive-exploration ablation, and the registry-evolution
// experiment. Its output is the source for EXPERIMENTS.md.
//
// Usage:
//
//	arachnet-bench             # every experiment
//	arachnet-bench -case 3     # one case study
//	arachnet-bench -loc        # the LoC table only
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"arachnet"
	"arachnet/internal/core"
	"arachnet/internal/fleetwire"
	"arachnet/internal/netsim"
)

// ctx spans the whole experiment run; individual Asks are uncancelled.
var ctx = context.Background()

// ask runs one evaluation query without curation, so experiment order
// never perturbs the registry under measurement.
func ask(sys *arachnet.System, query string) *arachnet.Report {
	rep, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		fatal(err)
	}
	return rep
}

// The paper's case-study queries, verbatim.
var queries = map[int]string{
	1: "Identify the impact at a country level due to SeaMeWe-5 cable failure",
	2: "Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
	3: "Analyze the cascading effects of submarine cable failures between Europe and Asia",
	4: "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
}

// paperLoC is the generated-workflow size the paper reports per case.
var paperLoC = map[int]int{1: 250, 2: 300, 3: 525, 4: 750}

func main() {
	var (
		onlyCase    = flag.Int("case", 0, "run a single case study (1-4); 0 = all")
		locOnly     = flag.Bool("loc", false, "print only the LoC table")
		servingOnly = flag.Bool("serving", false, "print only the async serving throughput experiment")
		cacheOnly   = flag.Bool("cache", false, "print only the memoized serving experiment (cold vs warm latencies + hit ratios)")
		world       = flag.String("world", "full", "world size for -cache: full|small")
		jsonPath    = flag.String("json", "", "with -cache, -fleetbench, -wirebench or -compiledbench, also write the results as JSON to this path (e.g. BENCH_5.json, BENCH_8.json, BENCH_9.json)")
		seed        = flag.Uint64("seed", 42, "world seed")
		fleetN      = flag.Int("fleet", 0, "shard the world over N fleet workers for every experiment (0 = inline execution)")
		fleetBench  = flag.Bool("fleetbench", false, "print only the fleet-scaling experiment (fleet 0/1/4 cold+warm latency and allocations, plus a ≥10x world)")
		wireBench   = flag.Bool("wirebench", false, "print only the remote-fleet experiment (real HTTP workers on loopback vs the in-process fleet, cold+warm)")
		compBench   = flag.Bool("compiledbench", false, "print only the cache-snapshot experiment (snapshot save/load cost and cold-vs-snapshot restart first-ask latency)")
	)
	flag.Parse()
	fleetOpt := func(opts []arachnet.Option) []arachnet.Option {
		if *fleetN > 0 {
			opts = append(opts, arachnet.WithFleet(*fleetN))
		}
		return opts
	}

	if *servingOnly {
		serving(*seed)
		return
	}
	if *cacheOnly {
		cacheExperiment(*seed, *world, *jsonPath, fleetOpt)
		return
	}
	if *fleetBench {
		fleetExperiment(*seed, *world, *jsonPath)
		return
	}
	if *wireBench {
		wireExperiment(*seed, *world, *jsonPath)
		return
	}
	if *compBench {
		compiledExperiment(*seed, *world, *jsonPath)
		return
	}

	sys, err := arachnet.New(fleetOpt([]arachnet.Option{
		arachnet.WithSeed(*seed),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: *seed}),
	})...)
	if err != nil {
		fatal(err)
	}

	if *locOnly {
		locTable(sys)
		return
	}
	cases := []int{1, 2, 3, 4}
	if *onlyCase != 0 {
		cases = []int{*onlyCase}
	}
	for _, n := range cases {
		switch n {
		case 1:
			case1(sys, *seed)
		case 2:
			case2(sys)
		case 3:
			case3(sys)
		case 4:
			case4(sys)
		default:
			fatal(fmt.Errorf("unknown case %d", n))
		}
	}
	if *onlyCase == 0 {
		locTable(sys)
		evolution(*seed)
		serving(*seed)
	}
}

// serving measures the async job subsystem: all four case-study
// queries, several rounds, submitted up front and drained through
// Job.Wait — the serving-surface counterpart of the per-call tables
// above.
func serving(seed uint64) {
	header("Async serving (bounded job queue, scheduler run slots)")
	sys, err := arachnet.New(
		arachnet.WithSeed(seed),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: seed}),
	)
	if err != nil {
		fatal(err)
	}
	keys := make([]int, 0, len(queries))
	for n := range queries {
		keys = append(keys, n)
	}
	sort.Ints(keys)

	const rounds = 3
	start := time.Now()
	var jobs []*arachnet.Job
	for r := 0; r < rounds; r++ {
		for _, n := range keys {
			j, err := sys.Submit(ctx, queries[n], arachnet.AskWithoutCuration())
			if err != nil {
				fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	queuedPeak := 0
	for _, j := range sys.Jobs() {
		if j.State() == arachnet.JobQueued {
			queuedPeak++
		}
	}
	var sequential time.Duration
	for _, j := range jobs {
		rep, err := j.Wait(ctx)
		if err != nil {
			fatal(err)
		}
		sequential += rep.Elapsed
	}
	wall := time.Since(start)
	fmt.Printf("%d jobs accepted up front (%d still queued right after submission)\n", len(jobs), queuedPeak)
	fmt.Printf("wall clock %v vs %v summed pipeline time (%.1fx, %.1f jobs/s)\n",
		wall.Round(time.Millisecond), sequential.Round(time.Millisecond),
		float64(sequential)/float64(wall), float64(len(jobs))/wall.Seconds())
}

func header(title string) {
	fmt.Printf("\n════ %s ════\n", title)
}

// cacheCaseResult is one query's cold-vs-warm measurement.
type cacheCaseResult struct {
	Case    int     `json:"case"`
	Query   string  `json:"query"`
	ColdMs  float64 `json:"cold_ms"`
	WarmMs  float64 `json:"warm_ms"` // median of the warm rounds
	Speedup float64 `json:"speedup"`
}

// cacheJSONCounters mirrors arachnet.CacheCounters for the report.
type cacheJSONCounters struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRatio  float64 `json:"hit_ratio"`
}

func toJSONCounters(c arachnet.CacheCounters) cacheJSONCounters {
	return cacheJSONCounters{
		Hits: c.Hits, Misses: c.Misses, Evictions: c.Evictions,
		Entries: c.Entries, Bytes: c.Bytes, HitRatio: c.HitRatio(),
	}
}

// cacheReport is the BENCH_5.json schema: the first recorded point of
// the repo's perf trajectory (cold vs warm serving latency + cache hit
// ratios per PR 5's memoized-serving refactor).
type cacheReport struct {
	Benchmark  string            `json:"benchmark"`
	PR         int               `json:"pr"`
	World      string            `json:"world"`
	Seed       uint64            `json:"seed"`
	WarmRounds int               `json:"warm_rounds"`
	Cases      []cacheCaseResult `json:"cases"`
	ColdMsSum  float64           `json:"cold_ms_total"`
	WarmMsSum  float64           `json:"warm_ms_total"`
	Speedup    float64           `json:"speedup"`
	PlanCache  cacheJSONCounters `json:"plan_cache"`
	StepCache  cacheJSONCounters `json:"step_cache"`
}

// cacheExperiment measures memoized serving: every case-study query
// cold (first contact, caches empty) and warm (median of repeat
// rounds), plus the resulting hit ratios. With -json the report also
// lands on disk for trajectory tracking.
func cacheExperiment(seed uint64, world, jsonPath string, fleetOpt func([]arachnet.Option) []arachnet.Option) {
	header("Memoized serving (plan + step caches, cold vs warm)")
	opts := fleetOpt([]arachnet.Option{arachnet.WithScenario(arachnet.ScenarioConfig{Seed: seed})})
	switch world {
	case "full":
		opts = append(opts, arachnet.WithSeed(seed))
	case "small":
		opts = append(opts, arachnet.WithSmallWorld(seed))
	default:
		fatal(fmt.Errorf("unknown world %q", world))
	}
	sys, err := arachnet.New(opts...)
	if err != nil {
		fatal(err)
	}

	const warmRounds = 5
	rep := cacheReport{
		Benchmark: "memoized-serving-cold-vs-warm", PR: 5,
		World: world, Seed: seed, WarmRounds: warmRounds,
	}
	keys := make([]int, 0, len(queries))
	for n := range queries {
		keys = append(keys, n)
	}
	sort.Ints(keys)

	// Case studies share capability sub-chains, so without a flush the
	// step cache warmed by one case would contaminate the next case's
	// "cold" number. Disable-then-re-arm empties both caches while
	// keeping the stock bounds.
	flushCaches := func() {
		sys.SetCacheLimits(0, 0, 0)
		sys.SetCacheLimits(arachnet.DefaultPlanCacheEntries,
			arachnet.DefaultStepCacheEntries, arachnet.DefaultStepCacheBytes)
	}

	fmt.Printf("%-6s %12s %12s %10s\n", "case", "cold", "warm(med)", "speedup")
	for _, n := range keys {
		flushCaches()
		cold := timeAsk(sys, queries[n])
		warms := make([]time.Duration, warmRounds)
		for r := range warms {
			warms[r] = timeAsk(sys, queries[n])
		}
		sort.Slice(warms, func(i, j int) bool { return warms[i] < warms[j] })
		warm := warms[warmRounds/2]
		res := cacheCaseResult{
			Case: n, Query: queries[n],
			ColdMs: ms(cold), WarmMs: ms(warm),
			Speedup: float64(cold) / float64(warm),
		}
		rep.Cases = append(rep.Cases, res)
		rep.ColdMsSum += res.ColdMs
		rep.WarmMsSum += res.WarmMs
		fmt.Printf("CS%-5d %12v %12v %9.1fx\n", n,
			cold.Round(time.Microsecond), warm.Round(time.Microsecond), res.Speedup)
	}
	if rep.WarmMsSum > 0 {
		rep.Speedup = rep.ColdMsSum / rep.WarmMsSum
	}
	st := sys.CacheStats()
	rep.PlanCache = toJSONCounters(st.Plan)
	rep.StepCache = toJSONCounters(st.Step)
	fmt.Printf("total: cold %.1fms vs warm %.1fms (%.1fx)\n", rep.ColdMsSum, rep.WarmMsSum, rep.Speedup)
	fmt.Printf("plan cache: %d/%d hits (ratio %.2f); step cache: %d/%d hits (ratio %.2f, ~%dKiB)\n",
		st.Plan.Hits, st.Plan.Hits+st.Plan.Misses, st.Plan.HitRatio(),
		st.Step.Hits, st.Step.Hits+st.Step.Misses, st.Step.HitRatio(), st.Step.Bytes/1024)

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// fleetConfigResult is one fleet size's measurement: latency and
// allocation counts for the first (cold, caches empty) and repeat
// (warm) servings of the fan-out query.
type fleetConfigResult struct {
	Fleet      int     `json:"fleet"` // 0 = inline execution, no fleet
	ColdMs     float64 `json:"cold_ms"`
	WarmMs     float64 `json:"warm_ms"` // median of the warm rounds
	ColdAllocs uint64  `json:"cold_allocs"`
	WarmAllocs uint64  `json:"warm_allocs"`
	Scattered  uint64  `json:"scattered,omitempty"`
	ShardLocal uint64  `json:"shard_local,omitempty"`
	Declined   uint64  `json:"declined,omitempty"`
	WorkerHits uint64  `json:"worker_cache_hits,omitempty"`
}

// fleetBigWorld records the ≥10x world the fleet unlocks: generation,
// partition and environment-build costs plus a full fleet-served ask.
type fleetBigWorld struct {
	Scale       int     `json:"scale"`
	Routers     int     `json:"routers"`
	Links       int     `json:"links"`
	NodeRatio   float64 `json:"node_ratio"` // vs the default full world
	GenerateMs  float64 `json:"generate_ms"`
	PartitionMs float64 `json:"partition_ms"`
	EnvMs       float64 `json:"env_ms"`
	Fleet       int     `json:"fleet"`
	ColdMs      float64 `json:"cold_ms"`
	WarmMs      float64 `json:"warm_ms"`
	Scattered   uint64  `json:"scattered"`
}

// fleetReport is the BENCH_8.json schema: the fleet-scaling point of
// the perf trajectory (distributed scatter-gather execution, PR 8).
type fleetReport struct {
	Benchmark  string              `json:"benchmark"`
	PR         int                 `json:"pr"`
	World      string              `json:"world"`
	Seed       uint64              `json:"seed"`
	Query      string              `json:"query"`
	WarmRounds int                 `json:"warm_rounds"`
	Configs    []fleetConfigResult `json:"configs"`
	BigWorld   fleetBigWorld       `json:"big_world"`
}

// askAllocs times one curation-free Ask and reports the heap
// allocations it performed (Mallocs delta around the call; the
// ReadMemStats stops-the-world sit outside the timed region).
func askAllocs(sys *arachnet.System, query string) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if _, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration()); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs
}

// cs1System builds a system over the paper's controlled CS1 registry
// subset — the one whose plan takes the fan-out chain (cable → links →
// extract_ips → locate_ips → rollup) whose middle steps scatter over
// shards. The full registry plans CS1 through the single aggregate
// step xaminer.impact_from_links, which stays on the coordinator.
func cs1System(opts ...arachnet.Option) *arachnet.System {
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		fatal(err)
	}
	sys, err := arachnet.New(append(opts, arachnet.WithRegistry(sub))...)
	if err != nil {
		fatal(err)
	}
	return sys
}

// fleetExperiment measures DIMES-style sharded execution: the CS1
// fan-out query (cable → links → extract_ips → locate_ips → rollup,
// whose middle steps scatter over shards) served inline (fleet 0),
// by a degenerate fleet of one, and by a fleet of four — cold and
// warm, with allocation counts — then demonstrates the capability
// the fleet exists for: a world ≥10x the default node count, served
// end-to-end through a fleet of four.
func fleetExperiment(seed uint64, world, jsonPath string) {
	header("Fleet scaling (sharded scatter-gather vs inline execution)")
	const warmRounds = 5
	query := queries[1]
	rep := fleetReport{
		Benchmark: "fleet-scaling", PR: 8,
		World: world, Seed: seed, Query: query, WarmRounds: warmRounds,
	}

	worldOpt := arachnet.WithSeed(seed)
	if world == "small" {
		worldOpt = arachnet.WithSmallWorld(seed)
	}
	fmt.Printf("%-8s %12s %12s %14s %14s\n", "fleet", "cold", "warm(med)", "cold allocs", "warm allocs")
	for _, n := range []int{0, 1, 4} {
		opts := []arachnet.Option{worldOpt}
		if n > 0 {
			opts = append(opts, arachnet.WithFleet(n))
		}
		sys := cs1System(opts...)
		cold, coldAllocs := askAllocs(sys, query)
		warms := make([]time.Duration, warmRounds)
		var warmAllocs uint64
		for r := range warms {
			warms[r], warmAllocs = askAllocs(sys, query)
		}
		sort.Slice(warms, func(i, j int) bool { return warms[i] < warms[j] })
		res := fleetConfigResult{
			Fleet:  n,
			ColdMs: ms(cold), WarmMs: ms(warms[warmRounds/2]),
			ColdAllocs: coldAllocs, WarmAllocs: warmAllocs,
		}
		if fs := sys.Fleet(); fs != nil {
			st := fs.Stats()
			res.Scattered, res.ShardLocal, res.Declined = st.Scattered, st.ShardLocal, st.Declined
			for _, sh := range st.Shards {
				res.WorkerHits += sh.CacheHits
			}
			fs.Close()
		}
		rep.Configs = append(rep.Configs, res)
		fmt.Printf("%-8d %12v %12v %14d %14d\n", n,
			cold.Round(time.Microsecond), warms[warmRounds/2].Round(time.Microsecond),
			coldAllocs, warmAllocs)
	}

	// The ≥10x world: scale the density knobs until routers exceed ten
	// times the default full world, then serve the same query through
	// a fleet of four.
	const bigScale = 15
	defCfg := netsim.DefaultConfig(seed)
	bigCfg := defCfg
	bigCfg.StubsPerCountry *= bigScale
	bigCfg.Tier2PerRegion *= bigScale
	bigCfg.ContentCount *= bigScale

	defWorld, err := netsim.Generate(defCfg)
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	bigWorld, err := netsim.Generate(bigCfg)
	if err != nil {
		fatal(err)
	}
	genMs := ms(time.Since(t0))
	t0 = time.Now()
	if _, err := netsim.PartitionWorld(bigWorld, 4); err != nil {
		fatal(err)
	}
	partMs := ms(time.Since(t0))
	t0 = time.Now()
	bigSys := cs1System(arachnet.WithWorldConfig(bigCfg), arachnet.WithFleet(4))
	bw := fleetBigWorld{
		Scale:   bigScale,
		Routers: bigWorld.Summary().Routers, Links: bigWorld.Summary().IPLinks,
		NodeRatio:  float64(bigWorld.Summary().Routers) / float64(defWorld.Summary().Routers),
		GenerateMs: genMs, PartitionMs: partMs, EnvMs: ms(time.Since(t0)),
		Fleet: 4,
	}
	bigCold, _ := askAllocs(bigSys, query)
	bigWarms := make([]time.Duration, warmRounds)
	for r := range bigWarms {
		bigWarms[r], _ = askAllocs(bigSys, query)
	}
	sort.Slice(bigWarms, func(i, j int) bool { return bigWarms[i] < bigWarms[j] })
	bw.ColdMs, bw.WarmMs = ms(bigCold), ms(bigWarms[warmRounds/2])
	if fs := bigSys.Fleet(); fs != nil {
		bw.Scattered = fs.Stats().Scattered
		fs.Close()
	}
	rep.BigWorld = bw
	fmt.Printf("big world: scale %dx → %d routers (%.1fx default), %d links; gen %.0fms partition %.0fms env %.0fms\n",
		bw.Scale, bw.Routers, bw.NodeRatio, bw.Links, bw.GenerateMs, bw.PartitionMs, bw.EnvMs)
	fmt.Printf("big world fleet-4 ask: cold %.1fms warm %.1fms (%d scattered steps)\n",
		bw.ColdMs, bw.WarmMs, bw.Scattered)

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// wireConfigResult is one execution mode's measurement in the
// remote-fleet experiment.
type wireConfigResult struct {
	Mode       string  `json:"mode"` // "in-process" | "remote"
	ColdMs     float64 `json:"cold_ms"`
	WarmMs     float64 `json:"warm_ms"` // median of the warm rounds
	Scattered  uint64  `json:"scattered"`
	Requests   uint64  `json:"wire_requests,omitempty"`
	Retries    uint64  `json:"wire_retries,omitempty"`
	Failovers  uint64  `json:"wire_failovers,omitempty"`
	BytesSent  uint64  `json:"wire_bytes_sent,omitempty"`
	BytesRecv  uint64  `json:"wire_bytes_received,omitempty"`
	Registered int     `json:"wire_registered,omitempty"`
}

// wireReport is the BENCH_9.json schema: the multi-process point of
// the perf trajectory — the same CS1 fan-out query served by the
// in-process fleet and by real arachnet-worker HTTP servers on
// loopback (PR 9).
type wireReport struct {
	Benchmark  string             `json:"benchmark"`
	PR         int                `json:"pr"`
	World      string             `json:"world"`
	Seed       uint64             `json:"seed"`
	Query      string             `json:"query"`
	Workers    int                `json:"workers"`
	WarmRounds int                `json:"warm_rounds"`
	BootMs     float64            `json:"worker_boot_ms"` // spawn all workers (world gen included)
	Configs    []wireConfigResult `json:"configs"`
}

// wireExperiment measures what the wire costs: the CS1 fan-out query
// cold and warm through an in-process fleet of two, then through two
// real worker HTTP servers on loopback — same shards, same codec the
// multi-process deployment uses, per-request wire counters recorded.
func wireExperiment(seed uint64, world, jsonPath string) {
	header("Remote fleet wire (HTTP workers on loopback vs in-process)")
	const warmRounds = 5
	const workers = 2
	query := queries[1]
	rep := wireReport{
		Benchmark: "remote-fleet-wire", PR: 9,
		World: world, Seed: seed, Query: query,
		Workers: workers, WarmRounds: warmRounds,
	}

	worldOpt := arachnet.WithSeed(seed)
	worldCfg := netsim.DefaultConfig(seed)
	if world == "small" {
		worldOpt = arachnet.WithSmallWorld(seed)
		worldCfg = netsim.SmallConfig(seed)
	}

	measure := func(sys *arachnet.System, mode string) wireConfigResult {
		cold := timeAsk(sys, query)
		warms := make([]time.Duration, warmRounds)
		for r := range warms {
			warms[r] = timeAsk(sys, query)
		}
		sort.Slice(warms, func(i, j int) bool { return warms[i] < warms[j] })
		res := wireConfigResult{Mode: mode, ColdMs: ms(cold), WarmMs: ms(warms[warmRounds/2])}
		if fs := sys.Fleet(); fs != nil {
			st := fs.Stats()
			res.Scattered = st.Scattered
			if st.Wire != nil {
				res.Requests, res.Retries, res.Failovers = st.Wire.Requests, st.Wire.Retries, st.Wire.Failovers
				res.BytesSent, res.BytesRecv = st.Wire.BytesSent, st.Wire.BytesReceived
				res.Registered = st.Wire.Registered
			}
			fs.Close()
		}
		return res
	}

	rep.Configs = append(rep.Configs, measure(cs1System(worldOpt, arachnet.WithFleet(workers)), "in-process"))

	// Real workers: each its own environment over the same world config,
	// serving its shard on a loopback listener — the exact server
	// cmd/arachnet-worker runs, minus the process boundary.
	t0 := time.Now()
	addrs := make([]string, workers)
	stops := make([]func(), workers)
	for i := 0; i < workers; i++ {
		env, err := core.NewEnvironment(worldCfg)
		if err != nil {
			fatal(err)
		}
		srv, err := fleetwire.NewServer(env, core.BuiltinRegistry(), workers, i, 512)
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		addrs[i] = ln.Addr().String()
		stops[i] = func() { hs.Close() }
	}
	rep.BootMs = ms(time.Since(t0))

	rep.Configs = append(rep.Configs, measure(cs1System(worldOpt, arachnet.WithRemoteFleet(addrs...)), "remote"))
	for _, stop := range stops {
		stop()
	}

	fmt.Printf("%-12s %12s %12s %10s %10s %10s\n", "mode", "cold", "warm(med)", "scattered", "requests", "bytes out")
	for _, c := range rep.Configs {
		fmt.Printf("%-12s %10.1fms %10.1fms %10d %10d %10d\n",
			c.Mode, c.ColdMs, c.WarmMs, c.Scattered, c.Requests, c.BytesSent)
	}
	fmt.Printf("worker boot (world gen + shard + listen) took %.0fms for %d workers\n", rep.BootMs, workers)

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// compiledSnapshotResult measures the persistence path: snapshot size
// and save/load time, plus the first-ask latency of a fresh process
// with and without the snapshot.
type compiledSnapshotResult struct {
	Bytes             int     `json:"bytes"`
	Queries           int     `json:"queries"`
	Steps             int     `json:"steps"`
	SaveMs            float64 `json:"save_ms"`
	LoadMs            float64 `json:"load_ms"`
	ColdRestartMs     float64 `json:"cold_restart_first_ask_ms"`
	SnapshotRestartMs float64 `json:"snapshot_restart_first_ask_ms"`
	RestartSpeedup    float64 `json:"restart_speedup"`
}

// compiledReport is the -compiledbench JSON schema: the persistence
// tier's point of the perf trajectory.
type compiledReport struct {
	Benchmark string                 `json:"benchmark"`
	PR        int                    `json:"pr"`
	World     string                 `json:"world"`
	Seed      uint64                 `json:"seed"`
	Snapshot  compiledSnapshotResult `json:"snapshot"`
}

// compiledExperiment measures the persistence tier: warm a system on
// every case-study query (plans, their compiled artifacts and step
// results all cached), save its snapshot, boot two fresh systems — one
// cold, one restored from the snapshot — and compare their first-ask
// latencies.
func compiledExperiment(seed uint64, world, jsonPath string) {
	header("Cache snapshots (save/load, cold vs snapshot restart)")
	rep := compiledReport{Benchmark: "cache-snapshots", PR: 10, World: world, Seed: seed}
	opts := []arachnet.Option{arachnet.WithScenario(arachnet.ScenarioConfig{Seed: seed})}
	switch world {
	case "full":
		opts = append(opts, arachnet.WithSeed(seed))
	case "small":
		opts = append(opts, arachnet.WithSmallWorld(seed))
	default:
		fatal(fmt.Errorf("unknown world %q", world))
	}
	sys, err := arachnet.New(opts...)
	if err != nil {
		fatal(err)
	}
	for _, q := range queries {
		ask(sys, q)
	}

	// Persistence: snapshot the warm system, then race a cold boot
	// against a snapshot-restored boot on their first ask of CS1.
	var buf bytes.Buffer
	t0 := time.Now()
	if err := sys.SaveSnapshot(&buf); err != nil {
		fatal(err)
	}
	rep.Snapshot.SaveMs = ms(time.Since(t0))
	rep.Snapshot.Bytes = buf.Len()
	var snap struct {
		Queries []string          `json:"queries"`
		Steps   []json.RawMessage `json:"steps"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		fatal(err)
	}
	rep.Snapshot.Queries, rep.Snapshot.Steps = len(snap.Queries), len(snap.Steps)

	coldSys, err := arachnet.New(opts...)
	if err != nil {
		fatal(err)
	}
	rep.Snapshot.ColdRestartMs = ms(timeAsk(coldSys, queries[1]))

	warmSys, err := arachnet.New(opts...)
	if err != nil {
		fatal(err)
	}
	t0 = time.Now()
	if err := warmSys.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		fatal(err)
	}
	rep.Snapshot.LoadMs = ms(time.Since(t0))
	rep.Snapshot.SnapshotRestartMs = ms(timeAsk(warmSys, queries[1]))
	rep.Snapshot.RestartSpeedup = rep.Snapshot.ColdRestartMs / rep.Snapshot.SnapshotRestartMs

	fmt.Printf("snapshot: %d bytes (%d queries, %d steps); save %.1fms, load %.1fms\n",
		rep.Snapshot.Bytes, rep.Snapshot.Queries, rep.Snapshot.Steps,
		rep.Snapshot.SaveMs, rep.Snapshot.LoadMs)
	fmt.Printf("restart first ask: cold %.1fms vs snapshot %.2fms (%.0fx)\n",
		rep.Snapshot.ColdRestartMs, rep.Snapshot.SnapshotRestartMs, rep.Snapshot.RestartSpeedup)

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// timeAsk times one curation-free Ask (curation off keeps the registry
// — and with it the plan-cache generation — fixed under measurement).
func timeAsk(sys *arachnet.System, query string) time.Duration {
	start := time.Now()
	if _, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration()); err != nil {
		fatal(err)
	}
	return time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func case1(sys *arachnet.System, seed uint64) {
	header("Case Study 1: expert-level cable impact analysis (SeaMeWe-5)")
	// The paper's controlled setup: core Nautilus functions only.
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		fatal(err)
	}
	restricted, err := arachnet.New(
		arachnet.WithSeed(seed), arachnet.WithRegistry(sub),
	)
	if err != nil {
		fatal(err)
	}
	rep := ask(restricted, queries[1])
	agent := rep.Result.Outputs["aggregation"].(*arachnet.ImpactReport)
	expert, err := arachnet.ExpertCableImpact(restricted, "SeaMeWe-5")
	if err != nil {
		fatal(err)
	}
	sim := arachnet.CompareImpact(agent, expert)
	overlap := arachnet.FunctionalOverlap(rep, restricted, arachnet.ExpertCableImpactSteps())
	fmt.Printf("agent pipeline: %s\n", strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
	fmt.Printf("generated code: %d LoC (paper ≈%d)\n", rep.Solution.LoC, paperLoC[1])
	fmt.Printf("functional overlap with expert architecture: %.2f\n", overlap)
	fmt.Printf("output similarity: top-K Jaccard %.2f, Spearman %.2f, recall %.2f, MAE %.3f\n",
		sim.TopKJaccard, sim.Spearman, sim.CountryRecall, sim.ScoreMAE)
	fmt.Printf("agent top countries:  %v\n", agent.TopCountries(5))
	fmt.Printf("expert top countries: %v\n", expert.TopCountries(5))
}

func case2(sys *arachnet.System) {
	header("Case Study 2: natural disaster impact (10% failure probability)")
	rep := ask(sys, queries[2])
	agent := rep.Result.Outputs["combination"].(arachnet.GlobalImpact)
	expert, err := arachnet.ExpertDisasterImpact(sys, 0.10)
	if err != nil {
		fatal(err)
	}
	fws := rep.Design.Chosen.Frameworks(sys.Registry())
	fmt.Printf("agent pipeline: %s\n", strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
	fmt.Printf("frameworks used: %v (restraint: single analysis framework)\n", fws)
	fmt.Printf("generated code: %d LoC (paper ≈%d)\n", rep.Solution.LoC, paperLoC[2])
	fmt.Printf("events processed: agent %d, expert %d\n", len(agent.Events), len(expert.Events))
	fmt.Printf("expected links lost: agent %.1f, expert %.1f (identical=%v)\n",
		agent.ExpectedLinksLost, expert.ExpectedLinksLost,
		agent.ExpectedLinksLost == expert.ExpectedLinksLost)
	sim := arachnet.CompareImpact(arachnet.GlobalToReport(agent), arachnet.GlobalToReport(expert))
	fmt.Printf("output similarity: top-K Jaccard %.2f, recall %.2f\n", sim.TopKJaccard, sim.CountryRecall)
}

func case3(sys *arachnet.System) {
	header("Case Study 3: Europe–Asia cascading failure analysis")
	rep := ask(sys, queries[3])
	tl := rep.Result.Outputs["synthesis"].(*arachnet.Timeline)
	expert, err := arachnet.ExpertCascade(sys, arachnet.Europe, arachnet.Asia)
	if err != nil {
		fatal(err)
	}
	fws := rep.Design.Chosen.Frameworks(sys.Registry())
	fmt.Printf("agent pipeline: %s\n", strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
	fmt.Printf("frameworks integrated: %d (%v); paper reports 4\n", len(fws), fws)
	fmt.Printf("generated code: %d LoC (paper ≈%d)\n", rep.Solution.LoC, paperLoC[3])
	fmt.Printf("timeline layers: %v\n", tl.Layers())
	fmt.Printf("cascade: agent %d cables/%d rounds, expert %d cables/%d rounds\n",
		tl.CablesFailed, tl.CascadeRounds, len(expert.Cascade.Failed), len(expert.Cascade.Rounds))
	fmt.Printf("degraded ASes: agent %d, expert %d\n", tl.ASesDegraded, len(expert.Stress.Degraded))
	fmt.Printf("top countries: agent %v, expert %v\n", tl.TopCountries, expert.Timeline.TopCountries)
}

func case4(sys *arachnet.System) {
	header("Case Study 4: automated root cause investigation")
	rep := ask(sys, queries[4])
	agent := rep.Result.Outputs["verdict"].(arachnet.Verdict)
	expert, err := arachnet.ExpertForensic(sys)
	if err != nil {
		fatal(err)
	}
	truth := sys.Environment().Scenario.TrueCable
	fmt.Printf("agent pipeline: %s\n", strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
	fmt.Printf("generated code: %d LoC (paper ≈%d)\n", rep.Solution.LoC, paperLoC[4])
	fmt.Printf("ground truth cable: %s\n", truth)
	fmt.Printf("agent:  cause=%v cable=%s confidence=%.2f (stat=%.2f infra=%.2f routing=%.2f)\n",
		agent.CauseIsCableFailure, agent.Cable, agent.Confidence,
		agent.StatisticalEvidence, agent.InfraEvidence, agent.RoutingEvidence)
	fmt.Printf("expert: cause=%v cable=%s confidence=%.2f\n",
		expert.CauseIsCableFailure, expert.Cable, expert.Confidence)
	ag := arachnet.CompareVerdicts(agent, expert)
	fmt.Printf("agreement: causation=%v cable=%v confidence-gap=%.2f\n",
		ag.SameCausation, ag.SameCable, ag.ConfidenceGap)
	fmt.Printf("correct identification: agent=%v expert=%v\n",
		agent.Cable == truth, expert.Cable == truth)
}

func locTable(sys *arachnet.System) {
	header("Generated workflow size (in-text LoC metric)")
	fmt.Printf("%-6s %-12s %-12s %s\n", "case", "paper LoC", "measured", "steps/frameworks")
	for n := 1; n <= 4; n++ {
		rep := ask(sys, queries[n])
		fws := rep.Design.Chosen.Frameworks(sys.Registry())
		fmt.Printf("CS%-5d ≈%-11d %-12d %d steps / %d frameworks\n",
			n, paperLoC[n], rep.Solution.LoC, len(rep.Design.Chosen.Steps), len(fws))
	}
	fmt.Println("(shape: sizes grow with integration complexity; absolute values differ by codegen dialect)")
}

func evolution(seed uint64) {
	header("Registry evolution (RegistryCurator)")
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		fatal(err)
	}
	sys, err := arachnet.New(arachnet.WithSeed(seed), arachnet.WithRegistry(sub))
	if err != nil {
		fatal(err)
	}
	queries := []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact at a country level due to SeaMeWe-4 cable failure",
		"Identify the impact at a country level due to AAE-1 cable failure",
	}
	for i, q := range queries {
		// Curation stays on here: registry evolution is the experiment.
		rep, err := sys.Ask(ctx, q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("run %d: %d steps (%s)\n", i+1, len(rep.Design.Chosen.Steps),
			strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
		for _, p := range rep.Promotions {
			fmt.Printf("  promoted: %s (support %d, quality %.2f)\n",
				p.Capability.Name, p.Support, p.AvgQuality)
		}
	}
	fmt.Printf("registry grew to %d capabilities\n", sys.Registry().Size())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arachnet-bench:", err)
	os.Exit(1)
}
