package expert

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"arachnet/internal/core"
	"arachnet/internal/eval"
	"arachnet/internal/netsim"
	"arachnet/internal/xaminer"
)

func testEnv(t testing.TB, withScenario bool) *core.Environment {
	t.Helper()
	env, err := core.NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if withScenario {
		if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	return env
}

// busyCable returns a cable that actually carries links in this world,
// preferring SeaMeWe-5 (the paper's target) when it does.
func busyCable(env *core.Environment) string {
	if len(env.CrossMap.LinksOn("seamewe-5")) > 0 {
		return "SeaMeWe-5"
	}
	best := ""
	bestN := 0
	for _, c := range env.Catalog.Cables() {
		if n := len(env.CrossMap.LinksOn(c.ID)); n > bestN {
			best, bestN = c.Name, n
		}
	}
	return best
}

func TestExpertCableImpact(t *testing.T) {
	env := testEnv(t, false)
	name := busyCable(env)
	rep, err := CableImpact(env, name)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedLinks == 0 || len(rep.Countries) == 0 {
		t.Fatalf("vacuous expert impact for %s", name)
	}
	if _, err := CableImpact(env, "atlantis-99"); err == nil {
		t.Error("unknown cable must error")
	}
}

// TestCS1AgentMatchesExpert is the Level-1 reproduction: the agent's
// independently derived workflow must be functionally equivalent to the
// expert Xaminer solution.
func TestCS1AgentMatchesExpert(t *testing.T) {
	env := testEnv(t, false)
	name := busyCable(env)

	// Agent: restricted registry (core Nautilus functions only,
	// Xaminer's abstraction withheld — the paper's setup).
	restricted, err := core.BuiltinRegistry().Subset(core.CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(env, restricted)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(context.Background(), fmt.Sprintf("Identify the impact at a country level due to %s cable failure", name))
	if err != nil {
		t.Fatal(err)
	}
	agentImpact, ok := rep.Result.Outputs["aggregation"].(*xaminer.ImpactReport)
	if !ok {
		t.Fatalf("agent output is %T", rep.Result.Outputs["aggregation"])
	}

	expertImpact, err := CableImpact(env, name)
	if err != nil {
		t.Fatal(err)
	}

	sim := eval.CompareImpact(agentImpact, expertImpact)
	if sim.TopKJaccard < 0.6 {
		t.Errorf("top-K country overlap = %.2f, want >= 0.6", sim.TopKJaccard)
	}
	if sim.Spearman < 0.6 {
		t.Errorf("rank correlation = %.2f, want >= 0.6", sim.Spearman)
	}
	if sim.CountryRecall < 0.9 {
		t.Errorf("country recall = %.2f, want >= 0.9", sim.CountryRecall)
	}
	overlap := eval.FunctionalOverlap(rep.Design.Chosen, sys.Registry(), CableImpactSteps())
	if overlap < 0.7 {
		t.Errorf("functional overlap = %.2f, want >= 0.7 (agent: %v)",
			overlap, rep.Design.Chosen.CapabilityNames())
	}
}

func TestCS2AgentMatchesExpert(t *testing.T) {
	env := testEnv(t, false)
	sys, err := core.NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(context.Background(), "Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability")
	if err != nil {
		t.Fatal(err)
	}
	agentGlobal, ok := rep.Result.Outputs["combination"].(xaminer.GlobalImpact)
	if !ok {
		t.Fatalf("agent output is %T", rep.Result.Outputs["combination"])
	}
	expertGlobal, err := DisasterImpact(env, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Functionally identical workflows → identical results.
	if agentGlobal.ExpectedLinksLost != expertGlobal.ExpectedLinksLost {
		t.Errorf("expected loss: agent %.2f vs expert %.2f",
			agentGlobal.ExpectedLinksLost, expertGlobal.ExpectedLinksLost)
	}
	sim := eval.CompareImpact(eval.GlobalToReport(agentGlobal), eval.GlobalToReport(expertGlobal))
	if sim.TopKJaccard < 0.99 || sim.CountryRecall < 0.99 {
		t.Errorf("CS2 similarity = %+v, want identical", sim)
	}
	if overlap := eval.FunctionalOverlap(rep.Design.Chosen, sys.Registry(), DisasterImpactSteps()); overlap < 0.75 {
		t.Errorf("functional overlap = %.2f", overlap)
	}
}

func TestCS3AgentMatchesExpert(t *testing.T) {
	env := testEnv(t, true)
	sys, err := core.NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(context.Background(), "Analyze the cascading effects of submarine cable failures between Europe and Asia")
	if err != nil {
		t.Fatal(err)
	}
	agentTl, ok := rep.Result.Outputs["synthesis"].(*core.Timeline)
	if !ok {
		t.Fatalf("agent output is %T", rep.Result.Outputs["synthesis"])
	}
	exp, err := Cascade(env, "Europe", "Asia")
	if err != nil {
		t.Fatal(err)
	}
	// Same cascade structure.
	if agentTl.CablesFailed != len(exp.Cascade.Failed) {
		t.Errorf("cables failed: agent %d vs expert %d", agentTl.CablesFailed, len(exp.Cascade.Failed))
	}
	if agentTl.ASesDegraded != len(exp.Stress.Degraded) {
		t.Errorf("ASes degraded: agent %d vs expert %d", agentTl.ASesDegraded, len(exp.Stress.Degraded))
	}
	// Same top-impacted countries.
	if len(agentTl.TopCountries) == 0 || len(exp.Timeline.TopCountries) == 0 {
		t.Fatal("missing top countries")
	}
	if agentTl.TopCountries[0] != exp.Timeline.TopCountries[0] {
		t.Errorf("top country: agent %s vs expert %s", agentTl.TopCountries[0], exp.Timeline.TopCountries[0])
	}
	if overlap := eval.FunctionalOverlap(rep.Design.Chosen, sys.Registry(), CascadeSteps()); overlap < 0.6 {
		t.Errorf("functional overlap = %.2f", overlap)
	}
}

func TestCS4AgentMatchesExpert(t *testing.T) {
	env := testEnv(t, true)
	sys, err := core.NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(context.Background(), "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.")
	if err != nil {
		t.Fatal(err)
	}
	agentV, ok := rep.Result.Outputs["verdict"].(core.Verdict)
	if !ok {
		t.Fatalf("agent output is %T", rep.Result.Outputs["verdict"])
	}
	expertV, err := Forensic(env)
	if err != nil {
		t.Fatal(err)
	}
	ag := eval.CompareVerdicts(agentV, expertV)
	if !ag.SameCausation {
		t.Errorf("causation disagrees: agent %v vs expert %v", agentV.CauseIsCableFailure, expertV.CauseIsCableFailure)
	}
	if !ag.SameCable {
		t.Errorf("cable disagrees: agent %s vs expert %s", agentV.Cable, expertV.Cable)
	}
	if ag.ConfidenceGap > 0.2 {
		t.Errorf("confidence gap %.2f too large", ag.ConfidenceGap)
	}
	// Both must match the injected ground truth.
	if expertV.Cable != env.Scenario().TrueCable {
		t.Errorf("expert itself missed ground truth: %s vs %s", expertV.Cable, env.Scenario().TrueCable)
	}
	if overlap := eval.FunctionalOverlap(rep.Design.Chosen, sys.Registry(), ForensicSteps()); overlap < 0.7 {
		t.Errorf("functional overlap = %.2f", overlap)
	}
}

func TestExpertDisasterImpactValidation(t *testing.T) {
	env := testEnv(t, false)
	if _, err := DisasterImpact(env, -1); err == nil {
		t.Error("invalid probability must error")
	}
}

func TestExpertCascadeValidation(t *testing.T) {
	env := testEnv(t, false)
	if _, err := Cascade(env, "Europe", "Europe"); err != nil {
		// Europe-Europe cables exist (intra-European systems); this
		// should actually succeed.
		t.Logf("Europe-Europe corridor: %v", err)
	}
	if _, err := Cascade(env, "Oceania", "South America"); err == nil {
		t.Log("Oceania-SouthAmerica corridor unexpectedly exists; acceptable if catalog grows")
	}
}

func TestExpertForensicNeedsScenario(t *testing.T) {
	env := testEnv(t, false)
	if _, err := Forensic(env); err == nil {
		t.Error("forensic baseline without data must error")
	}
}

func TestExpertStepsDeclared(t *testing.T) {
	for name, steps := range map[string][]string{
		"cable":    CableImpactSteps(),
		"disaster": DisasterImpactSteps(),
		"cascade":  CascadeSteps(),
		"forensic": ForensicSteps(),
	} {
		if len(steps) < 3 {
			t.Errorf("%s: too few conceptual steps", name)
		}
		for _, s := range steps {
			if strings.TrimSpace(s) == "" {
				t.Errorf("%s: empty step", name)
			}
		}
	}
}
