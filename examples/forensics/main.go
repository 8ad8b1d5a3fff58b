// Forensic investigation: the paper's Case Study 4. A latency anomaly
// appeared three days ago; the agent must decide whether a submarine
// cable failure caused it and name the cable, fusing statistical,
// infrastructure and routing evidence. The example checks the verdict
// against the scenario's injected ground truth.
package main

import (
	"context"
	"fmt"
	"log"

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

	const query = "A sudden increase in latency was observed from European probes to Asian destinations " +
		"starting three days ago. Determine if a submarine cable failure caused this, and if so, " +
		"identify the specific cable."
	rep, err := sys.Ask(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("investigation pipeline:")
	for i, name := range rep.Design.Chosen.CapabilityNames() {
		fmt.Printf("  %d. %s\n", i+1, name)
	}

	v := rep.Result.Outputs["verdict"].(arachnet.Verdict)
	fmt.Printf("\n=== verdict ===\n")
	fmt.Printf("cable failure is the cause: %v\n", v.CauseIsCableFailure)
	fmt.Printf("identified cable:           %s\n", v.Cable)
	fmt.Printf("confidence:                 %.2f\n", v.Confidence)
	fmt.Printf("evidence: statistical=%.2f infrastructure=%.2f routing=%.2f\n",
		v.StatisticalEvidence, v.InfraEvidence, v.RoutingEvidence)
	fmt.Println("reasoning:", v.Explanation)

	truth := sys.Environment().Scenario().TrueCable
	fmt.Printf("\nground truth (injected): %s — agent correct: %v\n", truth, v.Cable == truth)

	expert, err := arachnet.ExpertForensic(sys)
	if err != nil {
		log.Fatal(err)
	}
	ag := arachnet.CompareVerdicts(v, expert)
	fmt.Printf("expert agreement: causation=%v cable=%v confidence-gap=%.2f\n",
		ag.SameCausation, ag.SameCable, ag.ConfidenceGap)
}
