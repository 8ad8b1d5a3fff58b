package arachnet_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"arachnet"
)

var ctx = context.Background()

func TestNewDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full world in -short mode")
	}
	sys, err := arachnet.New()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Registry().Size() < 20 {
		t.Errorf("registry = %d capabilities", sys.Registry().Size())
	}
	if sys.Environment().World == nil {
		t.Fatal("no world")
	}
}

func TestPublicQuickstart(t *testing.T) {
	sys, err := arachnet.New(arachnet.WithSmallWorld(7))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-5 cable failure")
	if err != nil {
		t.Fatal(err)
	}
	impact, ok := rep.Result.Outputs["aggregation"].(*arachnet.ImpactReport)
	if !ok {
		t.Fatalf("output type %T", rep.Result.Outputs["aggregation"])
	}
	rendered := arachnet.RenderImpact(impact, 5)
	if !strings.Contains(rendered, "country") {
		t.Errorf("rendered table: %q", rendered)
	}
	if rep.Solution.LoC() == 0 || !strings.Contains(rep.Solution.Code(), "python3") {
		t.Error("no generated code via public API")
	}
}

func TestPublicExpertComparators(t *testing.T) {
	sys, err := arachnet.New(
		arachnet.WithSmallWorld(7),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arachnet.ExpertDisasterImpact(sys, 0.1); err != nil {
		t.Errorf("disaster comparator: %v", err)
	}
	if _, err := arachnet.ExpertCascade(sys, arachnet.Europe, arachnet.Asia); err != nil {
		t.Errorf("cascade comparator: %v", err)
	}
	v, err := arachnet.ExpertForensic(sys)
	if err != nil {
		t.Errorf("forensic comparator: %v", err)
	}
	ag := arachnet.CompareVerdicts(v, v)
	if !ag.SameCausation || !ag.SameCable || ag.ConfidenceGap != 0 {
		t.Errorf("self agreement = %+v", ag)
	}
	for _, steps := range [][]string{
		arachnet.ExpertCableImpactSteps(), arachnet.ExpertDisasterImpactSteps(),
		arachnet.ExpertCascadeSteps(), arachnet.ExpertForensicSteps(),
	} {
		if len(steps) == 0 {
			t.Error("empty expert step declaration")
		}
	}
}

func TestPublicExpertMode(t *testing.T) {
	var stages []string
	sys, err := arachnet.New(arachnet.WithSmallWorld(7))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-5 cable failure",
		arachnet.AskExpert(func(stage string, artifact any) error {
			stages = append(stages, stage)
			if stage == arachnet.StageSolution {
				return errors.New("needs domain review")
			}
			return nil
		}))
	if err == nil || !strings.Contains(err.Error(), "needs domain review") {
		t.Fatalf("veto not propagated: %v", err)
	}
	var pe *arachnet.PipelineError
	if !errors.As(err, &pe) || pe.Stage != arachnet.StageSolution {
		t.Errorf("err = %v, want *PipelineError at %s", err, arachnet.StageSolution)
	}
	want := []string{arachnet.StageProblem, arachnet.StageDesign, arachnet.StageSolution}
	if len(stages) != len(want) {
		t.Errorf("stages = %v", stages)
	}
}

func TestPublicRegistrySubset(t *testing.T) {
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arachnet.New(arachnet.WithSmallWorld(7), arachnet.WithRegistry(sub))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-5 cable failure")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Design.Chosen.CapabilityNames() {
		if strings.HasPrefix(c, "xaminer.") {
			t.Errorf("restricted registry leaked %s", c)
		}
	}
}

func TestPublicWorldConfig(t *testing.T) {
	cfg := arachnet.WorldConfig{
		Seed: 3, Countries: []string{"GB", "FR", "SG", "IN", "US", "EG"},
		StubsPerCountry: 1, Tier1Count: 2, Tier2PerRegion: 1, ContentCount: 1,
	}
	sys, err := arachnet.New(arachnet.WithWorldConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Environment().World.Countries); got != 6 {
		t.Errorf("countries = %d", got)
	}
}
