package workflowscout

import (
	"strings"
	"testing"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/nautilus"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
)

// miniRegistry builds a registry with two alternative paths to an
// impact report:
//
//	direct: src.load (name → links) → big.impact (links → report)
//	long:   src.load → mid.extract → mid.locate → small.rollup
func miniRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	r := registry.New()
	emit := func(names ...string) registry.Func {
		return func(c *registry.Call) error {
			for _, n := range names {
				c.Out[n] = n
			}
			return nil
		}
	}
	r.MustRegister(registry.Capability{
		Name: "src.load", Framework: "src", Description: "load links for a cable",
		Inputs:  []registry.Port{{Name: "name", Type: registry.TString}},
		Outputs: []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Tags:    []string{"link-extraction", "cable-dependency"},
		Cost:    1, Impl: emit("links"),
	})
	r.MustRegister(registry.Capability{
		Name: "big.impact", Framework: "big", Description: "links to report directly",
		Inputs:  []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Outputs: []registry.Port{{Name: "report", Type: registry.TImpact}},
		Tags:    []string{"impact-analysis", "aggregation", "country-level"},
		Cost:    3, Impl: emit("report"),
	})
	r.MustRegister(registry.Capability{
		Name: "mid.extract", Framework: "mid", Description: "links to ips",
		Inputs:  []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Outputs: []registry.Port{{Name: "ips", Type: registry.TIPSet}},
		Tags:    []string{"ip-extraction"},
		Cost:    1, Impl: emit("ips"),
	})
	r.MustRegister(registry.Capability{
		Name: "mid.locate", Framework: "mid", Description: "ips to geo",
		Inputs:  []registry.Port{{Name: "ips", Type: registry.TIPSet}},
		Outputs: []registry.Port{{Name: "geo", Type: registry.TGeoTable}},
		Tags:    []string{"geo-mapping"},
		Cost:    1, Impl: emit("geo"),
	})
	r.MustRegister(registry.Capability{
		Name: "small.rollup", Framework: "small", Description: "geo to report",
		Inputs: []registry.Port{
			{Name: "geo", Type: registry.TGeoTable},
			{Name: "links", Type: registry.TLinkSet},
		},
		Outputs: []registry.Port{{Name: "report", Type: registry.TImpact}},
		Tags:    []string{"aggregation", "country-level"},
		Cost:    2, Impl: emit("report"),
	})
	return r
}

func cableProblem(complexity int) *querymind.ProblemSpec {
	return &querymind.ProblemSpec{
		Query: nlq.Spec{
			Raw: "impact of seamewe-5", Intent: nlq.IntentCableImpact,
			Cables: []nautilus.CableID{"seamewe-5"},
		},
		SubProblems: []querymind.SubProblem{
			{ID: "dependencies", Produces: registry.TLinkSet, Tags: []string{"link-extraction"}},
			{ID: "aggregation", Produces: registry.TImpact,
				Tags: []string{"aggregation", "country-level", "impact-analysis"}, DependsOn: []string{"dependencies"}},
		},
		Complexity: complexity,
	}
}

func TestDirectStrategyForSimpleQueries(t *testing.T) {
	reg := miniRegistry(t)
	d, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != "direct" || d.Explored != 1 {
		t.Errorf("strategy=%s explored=%d", d.Strategy, d.Explored)
	}
	caps := d.Chosen.CapabilityNames()
	// Tag affinity must route aggregation to big.impact.
	if caps[len(caps)-1] != "big.impact" {
		t.Errorf("chosen chain = %v", caps)
	}
	if len(caps) != 2 {
		t.Errorf("direct plan has %d steps, want 2", len(caps))
	}
}

func TestExploratoryStrategyForComplexQueries(t *testing.T) {
	reg := miniRegistry(t)
	d, err := New().Design(cableProblem(5), reg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != "exploratory" {
		t.Errorf("strategy = %s", d.Strategy)
	}
	if d.Explored < 2 {
		t.Fatalf("explored = %d, want >= 2 (both impact paths)", d.Explored)
	}
	// Candidates sorted best-first and chosen == first.
	if d.Alternatives[0].Workflow != d.Chosen {
		t.Error("chosen is not the best candidate")
	}
	for i := 1; i < len(d.Alternatives); i++ {
		if d.Alternatives[i-1].Score > d.Alternatives[i].Score {
			t.Error("alternatives not sorted by score")
		}
	}
	// The rejected alternative should be the long pipeline.
	foundLong := false
	for _, alt := range d.Alternatives {
		if len(alt.Workflow.Steps) >= 4 {
			foundLong = true
		}
	}
	if !foundLong {
		t.Error("long pipeline alternative never explored")
	}
}

func TestRestraintScoring(t *testing.T) {
	// The chosen workflow should touch fewer frameworks than the
	// rejected 4-step alternative (2 vs 3).
	reg := miniRegistry(t)
	d, err := New().Design(cableProblem(5), reg)
	if err != nil {
		t.Fatal(err)
	}
	best := d.Alternatives[0]
	if best.FrameworkCount > 2 {
		t.Errorf("best candidate uses %d frameworks", best.FrameworkCount)
	}
	if !strings.Contains(best.Rationale, "steps") {
		t.Errorf("rationale = %q", best.Rationale)
	}
}

func TestLiteralGrounding(t *testing.T) {
	reg := miniRegistry(t)
	d, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	src := d.Chosen.Steps[0]
	b, ok := src.Inputs["name"]
	if !ok || b.IsRef() {
		t.Fatalf("name binding = %+v", b)
	}
	if b.Literal != "seamewe-5" {
		t.Errorf("literal = %v", b.Literal)
	}
}

func TestUnsatisfiableProblem(t *testing.T) {
	reg := miniRegistry(t)
	ps := cableProblem(1)
	ps.SubProblems = append(ps.SubProblems, querymind.SubProblem{
		ID: "impossible", Produces: registry.TVerdict,
	})
	_, err := New().Design(ps, reg)
	if err == nil {
		t.Fatal("unsatisfiable problem must error")
	}
	if !strings.Contains(err.Error(), "impossible") {
		t.Errorf("error lacks subproblem context: %v", err)
	}
}

func TestMissingLiteralFails(t *testing.T) {
	reg := miniRegistry(t)
	ps := cableProblem(1)
	ps.Query.Cables = nil // no cable named → src.load's name input unbindable
	_, err := New().Design(ps, reg)
	if err == nil {
		t.Fatal("missing literal must fail planning")
	}
}

func TestArtifactReuseAcrossSubProblems(t *testing.T) {
	// The aggregation step must reference the links produced for the
	// dependencies sub-problem rather than re-planning a second loader.
	reg := miniRegistry(t)
	d, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	loaders := 0
	for _, c := range d.Chosen.CapabilityNames() {
		if c == "src.load" {
			loaders++
		}
	}
	if loaders != 1 {
		t.Errorf("src.load appears %d times, want 1", loaders)
	}
}

func TestCompositePreference(t *testing.T) {
	reg := miniRegistry(t)
	reg.MustRegister(registry.Capability{
		Name: "composite.load_to_report_2", Framework: "composite",
		Description: "validated pattern",
		Inputs:      []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Outputs:     []registry.Port{{Name: "report", Type: registry.TImpact}},
		Tags:        []string{"aggregation", "composite"},
		Cost:        3, Composite: true,
		Impl: func(c *registry.Call) error { c.Out["report"] = "r"; return nil },
	})
	d, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	caps := strings.Join(d.Chosen.CapabilityNames(), " ")
	if !strings.Contains(caps, "composite.") {
		t.Errorf("composite not preferred: %s", caps)
	}
}

func TestDesignedWorkflowsValidate(t *testing.T) {
	reg := miniRegistry(t)
	for _, complexity := range []int{1, 5} {
		d, err := New().Design(cableProblem(complexity), reg)
		if err != nil {
			t.Fatal(err)
		}
		for _, alt := range d.Alternatives {
			if err := alt.Workflow.Validate(reg); err != nil {
				t.Errorf("candidate invalid: %v", err)
			}
		}
	}
}

func TestOutputsAreSinksOnly(t *testing.T) {
	reg := miniRegistry(t)
	d, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Chosen.Outputs) != 1 {
		t.Fatalf("outputs = %v", d.Chosen.Outputs)
	}
	if _, ok := d.Chosen.Outputs["aggregation"]; !ok {
		t.Errorf("sink output missing: %v", d.Chosen.Outputs)
	}
}

// TestFailedAttemptRollsBack plans through a producer that chains a
// step and then fails: bad.impact backward-chains geo.fresh, which
// overwrites the links artifact and adds a geo one, then finds nothing
// producing cable.list. The rollback must drop that step and restore
// the artifacts, so the next producer, good.impact, reads the links
// the dependencies sub-problem produced and leaves its optional geo
// input unbound. The dropped step keeps its ID.
func TestFailedAttemptRollsBack(t *testing.T) {
	reg := registry.New()
	emit := func(c *registry.Call) error { return nil }
	for _, c := range []registry.Capability{
		{
			Name: "src.load", Framework: "src", Description: "load links for a cable",
			Inputs:  []registry.Port{{Name: "name", Type: registry.TString}},
			Outputs: []registry.Port{{Name: "links", Type: registry.TLinkSet}},
			Tags:    []string{"link-extraction"}, Impl: emit,
		},
		{
			Name: "geo.fresh", Framework: "geo", Description: "geo table and links of its own",
			Outputs: []registry.Port{{Name: "geo", Type: registry.TGeoTable}, {Name: "links", Type: registry.TLinkSet}},
			Impl:    emit,
		},
		{
			Name: "bad.impact", Framework: "bad", Description: "needs a cable list nothing produces",
			Inputs:  []registry.Port{{Name: "geo", Type: registry.TGeoTable}, {Name: "cables", Type: registry.TCableList}},
			Outputs: []registry.Port{{Name: "report", Type: registry.TImpact}},
			Tags:    []string{"aggregation", "country-level", "impact-analysis"}, Impl: emit,
		},
		{
			Name: "good.impact", Framework: "good", Description: "links to report",
			Inputs:  []registry.Port{{Name: "links", Type: registry.TLinkSet}, {Name: "geo", Type: registry.TGeoTable, Optional: true}},
			Outputs: []registry.Port{{Name: "report", Type: registry.TImpact}},
			Tags:    []string{"aggregation"}, Impl: emit,
		},
	} {
		reg.MustRegister(c)
	}
	d, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	steps := d.Chosen.Steps
	if got := strings.Join(d.Chosen.CapabilityNames(), " "); got != "src.load good.impact" {
		t.Fatalf("plan = %s, want src.load good.impact", got)
	}
	if steps[1].ID != "s3" {
		t.Errorf("second step is %s, want s3 (s2 went to the rolled-back geo.fresh)", steps[1].ID)
	}
	if b, ok := steps[1].Inputs["links"]; !ok || b.Ref != steps[0].ID+".links" {
		t.Errorf("good.impact links = %+v, want the ref %s.links", b, steps[0].ID)
	}
	if b, ok := steps[1].Inputs["geo"]; ok {
		t.Errorf("good.impact binds geo to %+v from the rolled-back step", b)
	}
}
