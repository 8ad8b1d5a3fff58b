// Quickstart: ask ArachNet the paper's Case Study 1 question and walk
// through every artifact the pipeline produces — the decomposition, the
// explored design, the generated code, and the executed analysis.
package main

import (
	"context"
	"fmt"
	"log"

	"arachnet"
)

func main() {
	// A compact world keeps the quickstart instant; drop WithSmallWorld
	// for the full 80+-country Internet.
	sys, err := arachnet.New(arachnet.WithSmallWorld(7))
	if err != nil {
		log.Fatal(err)
	}

	const query = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	fmt.Println("query:", query)

	rep, err := sys.Ask(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n[1] QueryMind decomposed the problem into:")
	for _, sp := range rep.Problem.SubProblems {
		fmt.Printf("    %-14s → %-18s %s\n", sp.ID, sp.Produces, sp.Goal)
	}

	fmt.Printf("\n[2] WorkflowScout designed the workflow (%s strategy, %d candidate(s)):\n",
		rep.Design.Strategy, rep.Design.Explored)
	for i, name := range rep.Design.Chosen.CapabilityNames() {
		fmt.Printf("    step %d: %s\n", i+1, name)
	}

	fmt.Printf("\n[3] SolutionWeaver generated %d lines of %s with %d quality checks.\n",
		rep.Solution.LoC(), rep.Solution.Language, rep.Solution.ChecksAdded)
	fmt.Println("    First lines of the generated program:")
	printed := 0
	for _, line := range splitLines(rep.Solution.Code()) {
		fmt.Println("    |", line)
		printed++
		if printed == 8 {
			break
		}
	}

	fmt.Printf("\n[4] Execution finished with quality score %.2f:\n\n", rep.Result.QualityScore())
	impact := rep.Result.Outputs["aggregation"].(*arachnet.ImpactReport)
	fmt.Println(arachnet.RenderImpact(impact, 10))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
