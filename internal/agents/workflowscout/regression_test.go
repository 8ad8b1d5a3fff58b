package workflowscout_test

// Regression for the promoted-composite cascade bug (ROADMAP, present
// since PR 1): after RegistryCurator promoted the cable-impact chain,
// planning the CS3 cascade query ground nautilus.resolve_cable's
// `name` input (a generic scalar.string) with the `text` output of
// report.render — a rendered impact table — because artifact reuse and
// backward chaining matched scalars on type alone. The run then failed
// at execution with `unknown cable "scenario xaminer: ..."`. The fix
// requires scalar refs to agree on port name (see refBindable), so the
// planner now falls back to the corridor capabilities and the cascade
// query survives registry evolution.
//
// The test lives in an external package so it can drive the full
// system (core → curator → scout) exactly as the repro does: small
// world + scenario, two cable-impact Asks to fire the promotion, then
// the cascade query.

import (
	"context"
	"strings"
	"testing"

	"arachnet/internal/core"
	"arachnet/internal/netsim"
	"arachnet/internal/workflow"
)

func TestCascadePlanSurvivesCompositePromotion(t *testing.T) {
	env, err := core.NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	promoted := false
	for _, q := range []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact at a country level due to SeaMeWe-4 cable failure",
	} {
		rep, err := sys.Ask(ctx, q)
		if err != nil {
			t.Fatalf("warm-up ask %q: %v", q, err)
		}
		promoted = promoted || len(rep.Promotions) > 0
	}
	if !promoted {
		t.Fatal("no composite promoted; the regression scenario needs one")
	}

	rep, err := sys.Ask(ctx,
		"Analyze the cascading effects of submarine cable failures between Europe and Asia")
	if err != nil {
		t.Fatalf("cascade query failed after promotion: %v", err)
	}

	// The broken plans bound scalar inputs to refs of differently named
	// ports (name ← sN.text). None may survive.
	for _, step := range rep.Design.Chosen.Steps {
		capb, err := sys.Registry().Get(step.Capability)
		if err != nil {
			t.Fatalf("step %s: %v", step.ID, err)
		}
		for _, b := range step.Inputs {
			inName := b.Name
			if !b.IsRef() {
				continue
			}
			port, ok := capb.InputPort(inName)
			if !ok || !strings.HasPrefix(string(port.Type), "scalar.") {
				continue
			}
			if workflow.RefPort(b.Ref) != inName {
				t.Errorf("step %s (%s): scalar input %q mis-bound to %s",
					step.ID, step.Capability, inName, b.Ref)
			}
		}
	}

	// And the run must actually produce the cross-layer timeline.
	tl, ok := rep.Result.Outputs["synthesis"].(*core.Timeline)
	if !ok || tl == nil {
		t.Fatalf("cascade output missing: %T", rep.Result.Outputs["synthesis"])
	}
	if len(tl.Entries) == 0 {
		t.Error("timeline is empty")
	}
}
