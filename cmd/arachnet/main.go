// Command arachnet runs the full four-agent pipeline on a
// natural-language measurement query and prints the artifacts of every
// stage: decomposition, design, generated code, execution results.
//
// Examples:
//
//	arachnet -query "Identify the impact at a country level due to SeaMeWe-5 cable failure"
//	arachnet -world small -scenario -query "Analyze the cascading effects of submarine cable failures between Europe and Asia"
//	arachnet -registry cs1 -show code -query "..."
//
// With -monitor the query becomes a standing one: it re-executes
// whenever the environment changes and prints delta events instead of
// a one-shot report. -inject-every drives the demo by injecting a
// fresh cable-failure scenario on a timer:
//
//	arachnet -world small -monitor -inject-every 2s -inject-count 3 -query "..."
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"strings"
	"time"

	"arachnet"
)

func main() {
	var (
		query       = flag.String("query", "", "natural-language measurement query (required)")
		seed        = flag.Uint64("seed", 42, "world seed")
		world       = flag.String("world", "full", "world size: full|small")
		scenario    = flag.Bool("scenario", false, "inject a cable-failure measurement scenario (needed for cascade/forensic queries)")
		regName     = flag.String("registry", "full", "capability registry: full|cs1 (cs1 withholds Xaminer abstractions)")
		show        = flag.String("show", "all", "sections to print: all|plan|design|code|result")
		trace       = flag.Bool("trace", false, "print per-step execution provenance")
		timeout     = flag.Duration("timeout", 0, "abort the query after this duration (0 = no limit)")
		noCurate    = flag.Bool("no-curation", false, "disable post-run registry evolution")
		stream      = flag.Bool("stream", false, "stream live pipeline progress (stages, steps, promotions) to stderr while the query runs")
		noCache     = flag.Bool("no-cache", false, "bypass plan and step memoization for this query")
		cacheStats  = flag.Bool("cache-stats", false, "print plan/step cache statistics to stderr after the run")
		fleetRemote = flag.String("fleet-remote", "", "comma-separated arachnet-worker addresses (host:port,...), one per shard; pure fan-out steps scatter-gather across them")
		monitor     = flag.Bool("monitor", false, "run the query as a standing subscription and print delta events until interrupted")
		injectEvery = flag.Duration("inject-every", 0, "with -monitor: inject a fresh cable-failure scenario on this interval (0 = never)")
		injectCount = flag.Int("inject-count", 3, "with -monitor and -inject-every: stop injecting after this many scenarios (0 = no limit)")
		snapshot    = flag.String("snapshot", "", "cache snapshot file: loaded before the query (if present and matching this world/seed/registry), rewritten after it — repeated invocations answer warm")
	)
	flag.Parse()
	if *query == "" {
		fmt.Fprintln(os.Stderr, "usage: arachnet -query \"...\" [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	opts := []arachnet.Option{}
	switch *world {
	case "full":
		opts = append(opts, arachnet.WithSeed(*seed))
	case "small":
		opts = append(opts, arachnet.WithSmallWorld(*seed))
	default:
		fatal(fmt.Errorf("unknown world %q", *world))
	}
	if *scenario {
		opts = append(opts, arachnet.WithScenario(arachnet.ScenarioConfig{Seed: *seed}))
	}
	switch *regName {
	case "full":
	case "cs1":
		sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, arachnet.WithRegistry(sub))
	default:
		fatal(fmt.Errorf("unknown registry %q", *regName))
	}
	if *fleetRemote != "" {
		var addrs []string
		for _, a := range strings.Split(*fleetRemote, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		opts = append(opts, arachnet.WithRemoteFleet(addrs...))
	}

	sys, err := arachnet.New(opts...)
	if err != nil {
		fatal(err)
	}
	if *snapshot != "" {
		loadSnapshot(sys, *snapshot)
		defer saveSnapshot(sys, *snapshot)
	}

	// Ctrl-C cancels the pipeline mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	askOpts := []arachnet.AskOption{}
	if *timeout > 0 {
		askOpts = append(askOpts, arachnet.AskTimeout(*timeout))
	}
	if *noCurate {
		askOpts = append(askOpts, arachnet.AskWithoutCuration())
	}
	if *noCache {
		askOpts = append(askOpts, arachnet.AskNoCache())
	}
	if *monitor {
		monitorQuery(ctx, sys, *query, askOpts, *seed, *injectEvery, *injectCount)
		return
	}
	var rep *arachnet.Report
	if *stream {
		// The streaming serving surface: progress lands on stderr as
		// events arrive, the final artifacts print below as usual.
		for ev := range sys.AskStream(ctx, *query, askOpts...) {
			switch ev := ev.(type) {
			case *arachnet.StageStarted:
				fmt.Fprintf(os.Stderr, "▶ %s\n", ev.Stage)
			case *arachnet.StepCompleted:
				if ev.Cached {
					fmt.Fprintf(os.Stderr, "  ✓ %s (%s) cached\n", ev.Step, ev.Capability)
				} else {
					fmt.Fprintf(os.Stderr, "  ✓ %s (%s) in %v\n",
						ev.Step, ev.Capability, ev.Duration.Round(time.Microsecond))
				}
			case *arachnet.StepFailed:
				fmt.Fprintf(os.Stderr, "  ✗ %s (%s): %v\n", ev.Step, ev.Capability, ev.Err)
			case *arachnet.CurationPromoted:
				fmt.Fprintf(os.Stderr, "  + promoted %s (support %d)\n",
					ev.Promotion.Capability.Name, ev.Promotion.Support)
			case *arachnet.Done:
				rep, err = ev.Report, ev.Err
			}
		}
	} else {
		rep, err = sys.Ask(ctx, *query, askOpts...)
	}
	if err != nil {
		fatal(err)
	}
	if rep == nil {
		// Streamed run ended without a Done (e.g. Ctrl-C with a full
		// event buffer).
		fatal(ctx.Err())
	}

	want := func(section string) bool { return *show == "all" || *show == section }

	if want("plan") {
		fmt.Printf("── QueryMind ──────────────────────────────────────────\n")
		fmt.Printf("intent: %s   complexity: %d   classification: %v\n",
			rep.Spec.Intent, rep.Problem.Complexity, rep.Problem.Classification)
		for _, sp := range rep.Problem.SubProblems {
			opt := ""
			if sp.Optional {
				opt = " (optional)"
			}
			fmt.Printf("  • %s%s → %s  %s\n", sp.ID, opt, sp.Produces, sp.Goal)
		}
		for _, c := range rep.Problem.Constraints {
			fmt.Printf("  constraint: %s\n", c)
		}
		for _, r := range rep.Problem.Risks {
			fmt.Printf("  risk: %s\n", r)
		}
		for _, s := range rep.Problem.SuccessCriteria {
			fmt.Printf("  success: %s\n", s)
		}
	}
	if want("design") {
		fmt.Printf("── WorkflowScout ──────────────────────────────────────\n")
		fmt.Printf("strategy: %s   candidates explored: %d\n", rep.Design.Strategy, rep.Design.Explored)
		for i, alt := range rep.Design.Alternatives {
			marker := " "
			if i == 0 {
				marker = "✓"
			}
			fmt.Printf("  %s score %.1f: %s\n", marker, alt.Score, alt.Rationale)
		}
		fmt.Print(rep.Design.Chosen.Describe())
	}
	if want("code") {
		fmt.Printf("── SolutionWeaver (%d LoC, %d checks) ─────────────────\n",
			rep.Solution.LoC(), rep.Solution.ChecksAdded)
		fmt.Println(rep.Solution.Code())
	}
	if want("result") {
		fmt.Printf("── Execution ──────────────────────────────────────────\n")
		if *trace {
			for _, line := range rep.Result.Provenance {
				fmt.Println("  " + line)
			}
		}
		fmt.Printf("quality score: %.2f\n", rep.Result.QualityScore())
		for name, v := range rep.Result.Outputs {
			fmt.Printf("\noutput %q:\n%s\n", name, renderValue(v))
		}
		if len(rep.Promotions) > 0 {
			fmt.Printf("── RegistryCurator ────────────────────────────────────\n")
			for _, p := range rep.Promotions {
				fmt.Printf("promoted %s (support %d): %s\n",
					p.Capability.Name, p.Support, strings.Join(p.Pattern, " → "))
			}
		}
		fmt.Printf("\nelapsed: %v\n", rep.Elapsed)
	}
	if *cacheStats {
		st := sys.CacheStats()
		fmt.Fprintf(os.Stderr, "plan cache: %d hits / %d misses (ratio %.2f), %d entries, %d evictions\n",
			st.Plan.Hits, st.Plan.Misses, st.Plan.HitRatio(), st.Plan.Entries, st.Plan.Evictions)
		fmt.Fprintf(os.Stderr, "step cache: %d hits / %d misses (ratio %.2f), %d entries, ~%d bytes, %d evictions\n",
			st.Step.Hits, st.Step.Misses, st.Step.HitRatio(), st.Step.Entries, st.Step.Bytes, st.Step.Evictions)
		if st.Fleet != nil {
			fmt.Fprintf(os.Stderr, "fleet: %d workers, %d scattered / %d shard-local / %d declined\n",
				st.Fleet.Workers, st.Fleet.Scattered, st.Fleet.ShardLocal, st.Fleet.Declined)
			for _, sh := range st.Fleet.Shards {
				fmt.Fprintf(os.Stderr, "  worker %d: %d countries, %d routers, %d links\n",
					sh.Worker, sh.Countries, sh.Routers, sh.Links)
			}
			if wire := st.Fleet.Wire; wire != nil {
				fmt.Fprintf(os.Stderr, "  wire: %d remotes (%d registered, %d rejected); %d requests, %d retries, %d failovers, %d health failures, %dB sent / %dB received\n",
					wire.Remotes, wire.Registered, wire.Rejected,
					wire.Requests, wire.Retries, wire.Failovers, wire.HealthFailures,
					wire.BytesSent, wire.BytesReceived)
			}
		}
	}
}

// monitorQuery runs the query as a standing subscription: the baseline
// executes synchronously, then every environment change re-executes
// incrementally and prints as a delta. When injectEvery is set, a
// fresh cable-failure scenario (distinct seed each time) is injected
// on that interval to drive the demo; Ctrl-C closes the subscription.
func monitorQuery(ctx context.Context, sys *arachnet.System, query string,
	askOpts []arachnet.AskOption, seed uint64, injectEvery time.Duration, injectCount int) {
	sub, err := sys.Subscribe(ctx, query, askOpts...)
	if err != nil {
		fatal(err)
	}
	if injectEvery > 0 {
		go func() {
			tick := time.NewTicker(injectEvery)
			defer tick.Stop()
			for n := 0; injectCount <= 0 || n < injectCount; n++ {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				sc := arachnet.ScenarioConfig{Seed: seed + uint64(n) + 1}
				if err := sys.Environment().InjectCableFailureScenario(sc); err != nil {
					fmt.Fprintf(os.Stderr, "inject: %v\n", err)
					return
				}
				fmt.Fprintf(os.Stderr, "→ injected scenario (seed %d)\n", sc.Seed)
			}
		}()
	}
	for ev := range sub.Events() {
		switch ev := ev.(type) {
		case *arachnet.SubscriptionStarted:
			if ev.Err != nil {
				fmt.Printf("▶ watching %q — baseline failed: %v\n", query, ev.Err)
			} else {
				fmt.Printf("▶ watching %q — baseline quality %.2f\n",
					query, ev.Report.Result.QualityScore())
			}
		case *arachnet.ResultChanged:
			fmt.Printf("Δ rev %d (%s): %d run / %d cached\n",
				ev.Revision, ev.Cause, ev.Delta.StepsRun, ev.Delta.StepsCached)
			switch {
			case ev.Delta.ErrBefore != "" && ev.Delta.ErrAfter == "":
				fmt.Printf("  recovered from: %s\n", ev.Delta.ErrBefore)
			case ev.Delta.ErrAfter != "":
				fmt.Printf("  now failing: %s\n", ev.Delta.ErrAfter)
			}
			for _, d := range ev.Delta.Changed {
				fmt.Printf("  ~ %s\n      was %s\n      now %s\n", d.Path, d.Before, d.After)
			}
			for _, p := range ev.Delta.Added {
				fmt.Printf("  + %s\n", p)
			}
			for _, p := range ev.Delta.Removed {
				fmt.Printf("  - %s\n", p)
			}
		case *arachnet.ResultUnchanged:
			fmt.Printf("= rev %d (%s): unchanged, %d run / %d cached\n",
				ev.Revision, ev.Cause, ev.StepsRun, ev.StepsCached)
		case *arachnet.AnomalyAppeared:
			fmt.Printf("! anomaly %s at %s: %s\n",
				ev.Anomaly.Kind, ev.Anomaly.Source, ev.Anomaly.Detail)
		case *arachnet.AnomalyCleared:
			fmt.Printf("  anomaly %s at %s cleared\n", ev.Anomaly.Kind, ev.Anomaly.Source)
		case *arachnet.SubscriptionClosed:
			fmt.Printf("■ subscription closed: %s\n", ev.Reason)
		}
	}
}

func renderValue(v any) string {
	switch x := v.(type) {
	case *arachnet.ImpactReport:
		return arachnet.RenderImpact(x, 15)
	case arachnet.GlobalImpact:
		rep := arachnet.GlobalToReport(x)
		return fmt.Sprintf("events: %v\nexpected links lost: %.1f\n%s",
			x.Events, x.ExpectedLinksLost, arachnet.RenderImpact(rep, 15))
	case *arachnet.Timeline:
		return x.Render()
	case arachnet.Verdict:
		return fmt.Sprintf("cable failure is the cause: %v\ncable: %s\nconfidence: %.2f\nevidence: statistical=%.2f infrastructure=%.2f routing=%.2f\n%s",
			x.CauseIsCableFailure, x.Cable, x.Confidence,
			x.StatisticalEvidence, x.InfraEvidence, x.RoutingEvidence, x.Explanation)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// loadSnapshot warms the system from a cache snapshot file. A missing
// file is a normal first run; a mismatched one (different world, seed,
// registry or scenario) is reported and the run proceeds cold —
// snapshots are an accelerator, never a correctness dependency.
func loadSnapshot(sys *arachnet.System, path string) {
	if err := sys.LoadSnapshotFile(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "arachnet: snapshot %s rejected: %v (starting cold)\n", path, err)
	}
}

// saveSnapshot writes the system's warm cache state; SaveSnapshotFile
// replaces the previous snapshot only once the new one is on disk.
func saveSnapshot(sys *arachnet.System, path string) {
	if err := sys.SaveSnapshotFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "arachnet: snapshot %s: %v\n", path, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arachnet:", err)
	os.Exit(1)
}
