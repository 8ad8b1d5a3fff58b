// Batch serving: one shared System answers all four of the paper's
// case-study questions concurrently through AskBatch. The fan-out runs
// over a bounded worker pool, so a service can throw an arbitrary
// query mix at a single System without building one per request.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"arachnet"
)

func main() {
	sys, err := arachnet.New(
		arachnet.WithSmallWorld(7),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}),
	)
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
		"Analyze the cascading effects of submarine cable failures between Europe and Asia",
		"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
	}

	start := time.Now()
	reports, err := sys.AskBatch(context.Background(), queries, arachnet.AskParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	var sequential time.Duration
	for i, rep := range reports {
		sequential += rep.Elapsed
		fmt.Printf("query %d: %d steps, %d LoC, quality %.2f in %v\n",
			i+1, len(rep.Design.Chosen.Steps), rep.Solution.LoC(),
			rep.Result.QualityScore(), rep.Elapsed.Round(time.Millisecond))
		// Curation stays on across the batch, so the curator mines the
		// accumulated history as runs land: Report.Promotions shows
		// which run's pass evolved the registry.
		for _, p := range rep.Promotions {
			fmt.Printf("  curator promoted %s (support %d, quality %.2f): %s\n",
				p.Capability.Name, p.Support, p.AvgQuality, strings.Join(p.Pattern, " → "))
		}
	}
	fmt.Printf("\nbatch wall clock %v vs %v summed sequentially (%.1fx)\n",
		wall.Round(time.Millisecond), sequential.Round(time.Millisecond),
		float64(sequential)/float64(wall))
	fmt.Printf("registry after curation: %d capabilities, %d promoted composites\n",
		sys.Registry().Size(), len(sys.Promotions()))
}
