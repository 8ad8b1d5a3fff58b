// Expert mode: the paper's expert-in-the-loop operation. A domain
// specialist reviews the artifact leaving each agent — the
// decomposition, the chosen design, the woven solution — and can adjust
// or veto before the pipeline proceeds. This example installs a hook
// that audits each stage and enforces a review policy: designs must
// stay under a step budget and solutions must carry quality checks.
package main

import (
	"context"
	"fmt"
	"log"

	"arachnet"
)

func main() {
	review := func(stage string, artifact any) error {
		switch stage {
		case arachnet.StageProblem:
			ps := artifact.(*arachnet.ProblemSpec)
			fmt.Printf("[review:%s] %d sub-problems, %d risks flagged\n",
				stage, len(ps.SubProblems), len(ps.Risks))
			for _, r := range ps.Risks {
				fmt.Println("    risk:", r)
			}
		case arachnet.StageDesign:
			d := artifact.(*arachnet.Design)
			fmt.Printf("[review:%s] strategy=%s, %d candidate(s), chosen has %d steps\n",
				stage, d.Strategy, d.Explored, len(d.Chosen.Steps))
			if len(d.Chosen.Steps) > 10 {
				return fmt.Errorf("design exceeds the 10-step review budget")
			}
		case arachnet.StageSolution:
			sol := artifact.(*arachnet.Solution)
			fmt.Printf("[review:%s] %d LoC generated, %d quality checks\n",
				stage, sol.LoC(), sol.ChecksAdded)
			if sol.ChecksAdded == 0 {
				return fmt.Errorf("solution carries no quality checks; rejected")
			}
		case arachnet.StageResult:
			fmt.Printf("[review:%s] execution artifact received\n", stage)
		}
		return nil
	}

	sys, err := arachnet.New(arachnet.WithSmallWorld(7))
	if err != nil {
		log.Fatal(err)
	}

	// Expert review is a per-call choice: the same System serves fully
	// automated requests and reviewed ones side by side.
	rep, err := sys.Ask(context.Background(),
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		arachnet.AskExpert(review))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nall stages approved; final result:")
	impact := rep.Result.Outputs["aggregation"].(*arachnet.ImpactReport)
	fmt.Println(arachnet.RenderImpact(impact, 8))
}
