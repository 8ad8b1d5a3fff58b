package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/netsim"
	"arachnet/internal/nlq"
	"arachnet/internal/xaminer"
)

// ctx is the background context shared by the non-cancellation tests.
var ctx = context.Background()

const (
	queryCS1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	queryCS2 = "Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability"
	queryCS3 = "Analyze the cascading effects of submarine cable failures between Europe and Asia"
	queryCS4 = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."
)

// testEnv builds a small environment; scenario injection is optional.
func testEnv(t testing.TB, withScenario bool) *Environment {
	t.Helper()
	env, err := NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if withScenario {
		if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	return env
}

func TestNewEnvironment(t *testing.T) {
	env := testEnv(t, false)
	if env.World == nil || env.Catalog == nil || env.CrossMap == nil || env.Analyzer == nil {
		t.Fatal("environment incomplete")
	}
	d := env.Data()
	if !d.HasCrossLayerMap || d.MapCoverage <= 0 {
		t.Errorf("data catalog wrong: %+v", d)
	}
	if d.HasTraceArchive || d.HasBGPStream {
		t.Error("scenario data should be absent before injection")
	}
}

func TestInjectScenario(t *testing.T) {
	env := testEnv(t, true)
	sc := env.Scenario()
	if sc == nil {
		t.Fatal("no scenario")
	}
	if sc.TrueCable == "" || len(sc.FailedLink) == 0 {
		t.Error("scenario lacks ground truth")
	}
	if len(sc.Stream) == 0 || sc.Archive == nil {
		t.Error("scenario lacks data")
	}
	if !sc.FailureAt.After(sc.Start) || !sc.FailureAt.Before(sc.End) {
		t.Error("failure time outside window")
	}
	d := env.Data()
	if !d.HasTraceArchive || !d.HasBGPStream || d.WindowDays < 5 {
		t.Errorf("data catalog after injection: %+v", d)
	}
}

func TestBuiltinRegistryComplete(t *testing.T) {
	reg := BuiltinRegistry()
	if reg.Size() < 20 {
		t.Errorf("builtin registry has only %d capabilities", reg.Size())
	}
	fws := reg.Frameworks()
	want := []string{"bgp", "forensic", "geo", "nautilus", "report", "synthesis", "topo", "traceroute", "xaminer"}
	if len(fws) != len(want) {
		t.Fatalf("frameworks = %v, want %v", fws, want)
	}
	for i := range want {
		if fws[i] != want[i] {
			t.Errorf("framework %d = %s, want %s", i, fws[i], want[i])
		}
	}
	// CS1 subset must materialize.
	sub, err := reg.Subset(CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	if sub.ByFramework("xaminer") != nil {
		t.Error("CS1 subset leaks Xaminer abstractions")
	}
}

func TestAskCS1FullRegistry(t *testing.T) {
	env := testEnv(t, false)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problem == nil || len(rep.Problem.SubProblems) < 2 {
		t.Fatal("no decomposition")
	}
	if rep.Design == nil || rep.Design.Chosen == nil {
		t.Fatal("no design")
	}
	if rep.Solution == nil || rep.Solution.LoC() == 0 {
		t.Fatal("no generated code")
	}
	out, ok := rep.Result.Outputs["aggregation"]
	if !ok {
		t.Fatalf("no aggregation output; outputs = %v", rep.Result.Outputs)
	}
	impact, ok := out.(*xaminer.ImpactReport)
	if !ok {
		t.Fatalf("aggregation output is %T", out)
	}
	if len(impact.Countries) == 0 {
		t.Error("empty impact report")
	}
	// The chosen design in the full registry should use Xaminer's
	// abstraction (tag affinity) and stay compact.
	if rep.Design.Strategy != "direct" {
		t.Errorf("CS1 strategy = %s, want direct", rep.Design.Strategy)
	}
}

func TestAskCS1RestrictedRegistryDirectPipeline(t *testing.T) {
	env := testEnv(t, false)
	full := BuiltinRegistry()
	restricted, err := full.Subset(CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, restricted)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	caps := rep.Design.Chosen.CapabilityNames()
	// The direct pipeline must include geographic mapping and rollup
	// since Xaminer's embedding is withheld.
	joined := strings.Join(caps, " ")
	for _, want := range []string{"nautilus.links_on_cables", "nautilus.extract_ips", "geo.locate_ips", "report.country_rollup"} {
		if !strings.Contains(joined, want) {
			t.Errorf("direct pipeline missing %s: %v", want, caps)
		}
	}
	out := rep.Result.Outputs["aggregation"].(*xaminer.ImpactReport)
	if len(out.Countries) == 0 {
		t.Error("empty impact from direct pipeline")
	}
}

func TestAskCS2SingleFrameworkRestraint(t *testing.T) {
	env := testEnv(t, false)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(ctx, queryCS2)
	if err != nil {
		t.Fatal(err)
	}
	fws := rep.Design.Chosen.Frameworks(sys.Registry())
	if len(fws) != 1 || fws[0] != "xaminer" {
		t.Errorf("CS2 frameworks = %v, want [xaminer] (skilled restraint)", fws)
	}
	g, ok := rep.Result.Outputs["combination"].(xaminer.GlobalImpact)
	if !ok {
		t.Fatalf("combination output is %T", rep.Result.Outputs["combination"])
	}
	if len(g.Events) < 10 {
		t.Errorf("only %d events processed", len(g.Events))
	}
	if g.ExpectedLinksLost <= 0 {
		t.Error("no expected loss")
	}
}

func TestAskCS3MultiFramework(t *testing.T) {
	env := testEnv(t, true)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(ctx, queryCS3)
	if err != nil {
		t.Fatal(err)
	}
	fws := rep.Design.Chosen.Frameworks(sys.Registry())
	if len(fws) < 4 {
		t.Errorf("CS3 frameworks = %v, want >= 4", fws)
	}
	tl, ok := rep.Result.Outputs["synthesis"].(*Timeline)
	if !ok {
		t.Fatalf("synthesis output is %T", rep.Result.Outputs["synthesis"])
	}
	layers := tl.Layers()
	if len(layers) < 3 {
		t.Errorf("timeline layers = %v, want cable+ip+as at least", layers)
	}
	if tl.LinksLost == 0 || tl.CablesFailed == 0 {
		t.Errorf("degenerate timeline: %+v", tl)
	}
}

func TestAskCS4ForensicVerdict(t *testing.T) {
	env := testEnv(t, true)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Ask(ctx, queryCS4)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rep.Result.Outputs["verdict"].(Verdict)
	if !ok {
		t.Fatalf("verdict output is %T", rep.Result.Outputs["verdict"])
	}
	if !v.CauseIsCableFailure {
		t.Fatalf("causation not established: %+v", v)
	}
	if v.Cable != env.Scenario().TrueCable {
		t.Errorf("identified %s, ground truth %s", v.Cable, env.Scenario().TrueCable)
	}
	if v.Confidence <= 0.5 {
		t.Errorf("confidence %f too low", v.Confidence)
	}
	if v.StatisticalEvidence == 0 || v.InfraEvidence == 0 || v.RoutingEvidence == 0 {
		t.Errorf("missing evidence component: %+v", v)
	}
}

// TestAskCS4WithoutDataInfeasible: a forensic question on an
// environment with no scenario fails at QueryMind, its partial Report
// still carries the parse and no problem, and the failed plan is not
// cached, so asking again plans afresh.
func TestAskCS4WithoutDataInfeasible(t *testing.T) {
	env := testEnv(t, false) // no scenario
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, err := sys.Ask(ctx, queryCS4)
		var infeasible *querymind.ErrInfeasible
		if !errors.As(err, &infeasible) {
			t.Fatalf("ask %d: err = %v, want ErrInfeasible", i, err)
		}
		var pe *PipelineError
		if !errors.As(err, &pe) || pe.Stage != StageProblem {
			t.Fatalf("ask %d: err = %v, want a *PipelineError at %s", i, err, StageProblem)
		}
		if rep.Spec.Intent != nlq.IntentForensic || rep.Problem != nil {
			t.Errorf("ask %d: Spec.Intent = %q, Problem = %v; want %q and none", i, rep.Spec.Intent, rep.Problem, nlq.IntentForensic)
		}
	}
	if st := sys.CacheStats().Plan; st.Entries != 0 || st.Hits != 0 {
		t.Errorf("a failed plan reached the cache: %+v", st)
	}
}

func TestAskGenericRejected(t *testing.T) {
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	if _, err := sys.Ask(ctx, "please enumerate all the things"); err == nil {
		t.Error("generic query should be rejected with guidance")
	}
}

func TestExpertModeHooks(t *testing.T) {
	env := testEnv(t, false)
	var stages []string
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	hook := func(stage string, artifact any) error {
		stages = append(stages, stage)
		if artifact == nil {
			t.Errorf("stage %s: nil artifact", stage)
		}
		return nil
	}
	if _, err := sys.Ask(ctx, queryCS1, AskExpert(hook)); err != nil {
		t.Fatal(err)
	}
	want := []string{StageProblem, StageDesign, StageSolution, StageResult}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v", stages)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Errorf("stage %d = %s, want %s", i, stages[i], want[i])
		}
	}
}

func TestExpertModeVeto(t *testing.T) {
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	_, err := sys.Ask(ctx, queryCS1, AskExpert(func(stage string, artifact any) error {
		if stage == StageDesign {
			return errors.New("redesign with fewer steps")
		}
		return nil
	}))
	if err == nil || !strings.Contains(err.Error(), "redesign") {
		t.Fatalf("veto not propagated: %v", err)
	}
	// The veto surfaces as a typed pipeline error naming the stage.
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PipelineError", err)
	}
	if pe.Stage != StageDesign || pe.Query != queryCS1 {
		t.Errorf("PipelineError = %+v", pe)
	}
}

func TestExpertHookIsPerCall(t *testing.T) {
	// The same System serves reviewed and unreviewed requests: a hook
	// passed to one call must not leak into the next.
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	calls := 0
	hook := func(string, any) error { calls++; return nil }
	if _, err := sys.Ask(ctx, queryCS1, AskExpert(hook)); err != nil {
		t.Fatal(err)
	}
	reviewed := calls
	if reviewed == 0 {
		t.Fatal("expert hook never fired")
	}
	if _, err := sys.Ask(ctx, queryCS1); err != nil {
		t.Fatal(err)
	}
	if calls != reviewed {
		t.Error("hook fired on a call without AskExpert")
	}
}

func TestAskCancelledContext(t *testing.T) {
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := sys.Ask(cctx, queryCS1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if rep.Elapsed <= 0 {
		t.Error("Elapsed not stamped on the error path")
	}
}

func TestAskTimeoutStampsElapsed(t *testing.T) {
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	// A nanosecond budget expires before the first stage.
	rep, err := sys.Ask(ctx, queryCS1, AskTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != StageProblem {
		t.Errorf("err = %v, want PipelineError at %s", err, StageProblem)
	}
	if rep.Elapsed <= 0 {
		t.Error("Elapsed not stamped on the timeout path")
	}
}

func TestInfeasibleStampsElapsed(t *testing.T) {
	// Early error returns must still record Elapsed.
	env := testEnv(t, false) // no scenario → CS4 infeasible
	sys, _ := NewSystem(env, nil)
	rep, err := sys.Ask(ctx, queryCS4)
	if err == nil {
		t.Fatal("want infeasibility error")
	}
	if rep.Elapsed <= 0 {
		t.Error("Elapsed not stamped on the infeasible path")
	}
}

func TestRegistryEvolution(t *testing.T) {
	env := testEnv(t, false)
	restricted, err := BuiltinRegistry().Subset(CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, restricted)
	if err != nil {
		t.Fatal(err)
	}
	// First run: no pattern support yet.
	r1, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	steps1 := len(r1.Design.Chosen.Steps)
	// Second run of a similar query: support reaches 2 → promotion.
	r2, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-4 cable failure")
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Promotions()) == 0 {
		t.Fatal("no composite promoted after two successful runs")
	}
	// Third run: the design should now reuse the composite and shrink.
	r3, err := sys.Ask(ctx, "Identify the impact at a country level due to AAE-1 cable failure")
	if err != nil {
		t.Fatal(err)
	}
	steps3 := len(r3.Design.Chosen.Steps)
	if steps3 >= steps1 {
		t.Errorf("workflow did not shrink after promotion: %d → %d steps", steps1, steps3)
	}
	usesComposite := false
	for _, c := range r3.Design.Chosen.CapabilityNames() {
		if strings.HasPrefix(c, "composite.") {
			usesComposite = true
		}
	}
	if !usesComposite {
		t.Errorf("replanned workflow ignores composite: %v", r3.Design.Chosen.CapabilityNames())
	}
	// The composite must produce the same result shape.
	if _, ok := r3.Result.Outputs["aggregation"].(*xaminer.ImpactReport); !ok {
		t.Errorf("composite run output is %T", r3.Result.Outputs["aggregation"])
	}
	_ = r2
}

func TestAdaptiveExploration(t *testing.T) {
	// Simple query → direct (1 candidate); complex → exploratory (>1).
	env := testEnv(t, true)
	sys, _ := NewSystem(env, nil)
	r1, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Design.Strategy != "direct" || r1.Design.Explored != 1 {
		t.Errorf("CS1: strategy=%s explored=%d, want direct/1", r1.Design.Strategy, r1.Design.Explored)
	}
	r3, err := sys.Ask(ctx, queryCS3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Design.Strategy != "exploratory" {
		t.Errorf("CS3 strategy = %s", r3.Design.Strategy)
	}
	if r3.Design.Explored < 2 {
		t.Errorf("CS3 explored only %d candidates", r3.Design.Explored)
	}
	// Alternatives must be score-sorted with the chosen one first.
	alts := r3.Design.Alternatives
	for i := 1; i < len(alts); i++ {
		if alts[i-1].Score > alts[i].Score {
			t.Error("alternatives not sorted")
		}
	}
}

func TestGeneratedCodeShape(t *testing.T) {
	env := testEnv(t, true)
	sys, _ := NewSystem(env, nil)
	rep, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	code := rep.Solution.Code()
	for _, want := range []string{"#!/usr/bin/env python3", "def step_", "def main():", "Query:"} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	if rep.Solution.LoC() < 40 {
		t.Errorf("generated code suspiciously small: %d LoC", rep.Solution.LoC())
	}
	if rep.Solution.ChecksAdded == 0 {
		t.Error("no quality checks woven")
	}
}

func TestGeneratedLoCShape(t *testing.T) {
	// The paper's in-text LoC metric grows with case-study complexity:
	// CS1 ≈250, CS2 ≈300, CS3 ≈525, CS4 ≈750. We assert the shape:
	// forensic > cascade > the two simple cases.
	env := testEnv(t, true)
	sys, _ := NewSystem(env, nil)
	loc := map[string]int{}
	for name, q := range map[string]string{
		"cs1": queryCS1, "cs2": queryCS2, "cs3": queryCS3, "cs4": queryCS4,
	} {
		rep, err := sys.Ask(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loc[name] = rep.Solution.LoC()
		// fmt's error verbs mark Python % formatting run through fmt.
		for i, line := range strings.Split(rep.Solution.Code(), "\n") {
			if strings.Contains(line, "%!") {
				t.Errorf("%s: code line %d is corrupt: %s", name, i+1, line)
			}
		}
	}
	if !(loc["cs3"] > loc["cs1"] && loc["cs3"] > loc["cs2"]) {
		t.Errorf("CS3 (%d) should exceed CS1 (%d) and CS2 (%d)", loc["cs3"], loc["cs1"], loc["cs2"])
	}
	if loc["cs4"] <= loc["cs1"] || loc["cs4"] <= loc["cs2"] {
		t.Errorf("CS4 (%d) should exceed the simple cases (%d, %d)", loc["cs4"], loc["cs1"], loc["cs2"])
	}
	for name, n := range loc {
		if n < 60 || n > 1500 {
			t.Errorf("%s: %d LoC outside plausible band", name, n)
		}
	}
}

func TestQualityChecksPass(t *testing.T) {
	env := testEnv(t, true)
	sys, _ := NewSystem(env, nil)
	for _, q := range []string{queryCS1, queryCS2, queryCS3, queryCS4} {
		rep, err := sys.Ask(ctx, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if score := rep.Result.QualityScore(); score < 0.8 {
			for _, c := range rep.Result.Checks {
				if !c.Passed {
					t.Logf("failed check: %s (%s) %s", c.Name, c.Kind, c.Note)
				}
			}
			t.Errorf("quality score %f for %q", score, q)
		}
	}
}

func TestPipelineStages(t *testing.T) {
	// Figure 1 reproduction: every stage's artifact is present and the
	// dataflow runs end to end.
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	rep, err := sys.Ask(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec.Intent != nlq.IntentCableImpact {
		t.Error("stage 0 (parse) artifact wrong")
	}
	if rep.Problem == nil || len(rep.Problem.SuccessCriteria) == 0 {
		t.Error("stage 1 (QueryMind) artifact incomplete")
	}
	if rep.Design == nil || rep.Design.Chosen == nil {
		t.Error("stage 2 (WorkflowScout) artifact incomplete")
	}
	if rep.Solution == nil || rep.Solution.Code() == "" {
		t.Error("stage 3 (SolutionWeaver) artifact incomplete")
	}
	if rep.Result == nil || len(rep.Result.Provenance) == 0 {
		t.Error("stage 4 (execution) artifact incomplete")
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}
