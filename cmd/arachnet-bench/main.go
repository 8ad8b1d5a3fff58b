// Command arachnet-bench regenerates the paper's evaluation: the four
// case studies (agent vs expert comparison), the generated-LoC table
// and the registry-evolution experiment, printed as text tables. The
// A1 registry-compactness ablation and every serving path are timed by
// the Go benchmarks (go test -bench . in the repository root), and the
// served system end to end by servebench.
//
// Usage:
//
//	arachnet-bench             # every experiment
//	arachnet-bench -case 3     # one case study
//	arachnet-bench -loc        # the LoC table only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"arachnet"
	"arachnet/internal/eval"
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

// queries[n-1] is case study n's query, the paper's verbatim: the
// evaluation corpus lists the four first.
var queries = eval.Corpus()[:4]

// paperLoC is the generated-workflow size the paper reports per case.
var paperLoC = map[int]int{1: 250, 2: 300, 3: 525, 4: 750}

func main() {
	var (
		onlyCase = flag.Int("case", 0, "run a single case study (1-4); 0 = all")
		locOnly  = flag.Bool("loc", false, "print only the LoC table")
		seed     = flag.Uint64("seed", 42, "world seed")
	)
	flag.Parse()

	sys, err := arachnet.New(
		arachnet.WithSeed(*seed),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: *seed}),
	)
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
	}
}

func header(title string) {
	fmt.Printf("\n════ %s ════\n", title)
}

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
	rep := ask(restricted, queries[0])
	agent := rep.Result.Outputs["aggregation"].(*arachnet.ImpactReport)
	expert, err := arachnet.ExpertCableImpact(restricted, "SeaMeWe-5")
	if err != nil {
		fatal(err)
	}
	sim := arachnet.CompareImpact(agent, expert)
	overlap := arachnet.FunctionalOverlap(rep, restricted, arachnet.ExpertCableImpactSteps())
	fmt.Printf("agent pipeline: %s\n", strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
	fmt.Printf("generated code: %d LoC (paper ≈%d)\n", rep.Solution.LoC(), paperLoC[1])
	fmt.Printf("functional overlap with expert architecture: %.2f\n", overlap)
	fmt.Printf("output similarity: top-K Jaccard %.2f, Spearman %.2f, recall %.2f, MAE %.3f\n",
		sim.TopKJaccard, sim.Spearman, sim.CountryRecall, sim.ScoreMAE)
	fmt.Printf("agent top countries:  %v\n", agent.TopCountries(5))
	fmt.Printf("expert top countries: %v\n", expert.TopCountries(5))
}

func case2(sys *arachnet.System) {
	header("Case Study 2: natural disaster impact (10% failure probability)")
	rep := ask(sys, queries[1])
	agent := rep.Result.Outputs["combination"].(arachnet.GlobalImpact)
	expert, err := arachnet.ExpertDisasterImpact(sys, 0.10)
	if err != nil {
		fatal(err)
	}
	fws := rep.Design.Chosen.Frameworks(sys.Registry())
	fmt.Printf("agent pipeline: %s\n", strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
	fmt.Printf("frameworks used: %v (restraint: single analysis framework)\n", fws)
	fmt.Printf("generated code: %d LoC (paper ≈%d)\n", rep.Solution.LoC(), paperLoC[2])
	fmt.Printf("events processed: agent %d, expert %d\n", len(agent.Events), len(expert.Events))
	fmt.Printf("expected links lost: agent %.1f, expert %.1f (identical=%v)\n",
		agent.ExpectedLinksLost, expert.ExpectedLinksLost,
		agent.ExpectedLinksLost == expert.ExpectedLinksLost)
	sim := arachnet.CompareImpact(arachnet.GlobalToReport(agent), arachnet.GlobalToReport(expert))
	fmt.Printf("output similarity: top-K Jaccard %.2f, recall %.2f\n", sim.TopKJaccard, sim.CountryRecall)
}

func case3(sys *arachnet.System) {
	header("Case Study 3: Europe–Asia cascading failure analysis")
	rep := ask(sys, queries[2])
	tl := rep.Result.Outputs["synthesis"].(*arachnet.Timeline)
	expert, err := arachnet.ExpertCascade(sys, arachnet.Europe, arachnet.Asia)
	if err != nil {
		fatal(err)
	}
	fws := rep.Design.Chosen.Frameworks(sys.Registry())
	fmt.Printf("agent pipeline: %s\n", strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
	fmt.Printf("frameworks integrated: %d (%v); paper reports 4\n", len(fws), fws)
	fmt.Printf("generated code: %d LoC (paper ≈%d)\n", rep.Solution.LoC(), paperLoC[3])
	fmt.Printf("timeline layers: %v\n", tl.Layers())
	fmt.Printf("cascade: agent %d cables/%d rounds, expert %d cables/%d rounds\n",
		tl.CablesFailed, tl.CascadeRounds, len(expert.Cascade.Failed), len(expert.Cascade.Rounds))
	fmt.Printf("degraded ASes: agent %d, expert %d\n", tl.ASesDegraded, len(expert.Stress.Degraded))
	fmt.Printf("top countries: agent %v, expert %v\n", tl.TopCountries, expert.Timeline.TopCountries)
}

func case4(sys *arachnet.System) {
	header("Case Study 4: automated root cause investigation")
	rep := ask(sys, queries[3])
	agent := rep.Result.Outputs["verdict"].(arachnet.Verdict)
	expert, err := arachnet.ExpertForensic(sys)
	if err != nil {
		fatal(err)
	}
	truth := sys.Environment().Scenario().TrueCable
	fmt.Printf("agent pipeline: %s\n", strings.Join(rep.Design.Chosen.CapabilityNames(), " → "))
	fmt.Printf("generated code: %d LoC (paper ≈%d)\n", rep.Solution.LoC(), paperLoC[4])
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
		rep := ask(sys, queries[n-1])
		fws := rep.Design.Chosen.Frameworks(sys.Registry())
		fmt.Printf("CS%-5d ≈%-11d %-12d %d steps / %d frameworks\n",
			n, paperLoC[n], rep.Solution.LoC(), len(rep.Design.Chosen.Steps), len(fws))
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
