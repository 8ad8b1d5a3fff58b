package workflowscout

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/nautilus"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
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

// TestCompositePreference registers the chain the direct cable plan
// runs, src.load → big.impact, as a composite: the design names it in
// place of big.impact, keeps src.load, which realizes the dependencies
// sub-problem, and runs the same primitive steps.
func TestCompositePreference(t *testing.T) {
	reg := miniRegistry(t)
	plain, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	load, _ := reg.Get("src.load")
	impact, _ := reg.Get("big.impact")
	reg.MustRegister(registry.Capability{
		Name: "composite.load_to_impact_2", Framework: "composite",
		Description: "validated pattern",
		Inputs:      load.Inputs,
		Outputs:     impact.Outputs,
		Tags:        []string{"aggregation", "composite"},
		Cost:        3, Composite: true,
		Chain: []registry.ChainStep{
			{Capability: "src.load"},
			{Capability: "big.impact", In: map[string]registry.ChainRef{"links": {Step: 0, Port: "links"}}},
		},
	})
	d, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	caps := strings.Join(d.Chosen.CapabilityNames(), " ")
	if caps != "src.load composite.load_to_impact_2" {
		t.Errorf("composite not preferred: %s", caps)
	}
	if d.Alternatives[0].Score != plain.Alternatives[0].Score {
		t.Errorf("score %v, want the primitive plan's %v", d.Alternatives[0].Score, plain.Alternatives[0].Score)
	}
	ran := func(wf *workflow.Workflow) []string {
		res, err := workflow.NewEngine(reg, nil).Run(context.Background(), wf)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, st := range res.Steps {
			out = append(out, st.Capability)
		}
		return out
	}
	if got, want := ran(d.Chosen), []string{"src.load", "src.load", "big.impact"}; !slices.Equal(got, want) {
		t.Errorf("ran %v, want %v", got, want)
	}
	if got, want := ran(plain.Chosen), []string{"src.load", "big.impact"}; !slices.Equal(got, want) {
		t.Errorf("the plan without the composite ran %v, want %v", got, want)
	}
}

// TestSpells: a run of steps abbreviates a chain only when it holds the
// chain's capabilities bound exactly as the chain binds them, so the
// composite computes what the run did.
func TestSpells(t *testing.T) {
	chain := []registry.ChainStep{
		{Capability: "src.load"},
		{Capability: "big.impact", In: map[string]registry.ChainRef{"links": {Step: 0, Port: "links"}}},
	}
	run := func(impact map[string]workflow.Binding) []workflow.Step {
		return []workflow.Step{
			{ID: "s2", Capability: "src.load", Inputs: map[string]workflow.Binding{"name": workflow.Lit("x")}},
			{ID: "s3", Capability: "big.impact", Inputs: impact},
		}
	}
	for label, c := range map[string]struct {
		run  []workflow.Step
		want bool
	}{
		"the chain":        {run(map[string]workflow.Binding{"links": workflow.Ref("s2", "links")}), true},
		"an outside ref":   {run(map[string]workflow.Binding{"links": workflow.Ref("s1", "links")}), false},
		"another port":     {run(map[string]workflow.Binding{"links": workflow.Ref("s2", "name")}), false},
		"a literal":        {run(map[string]workflow.Binding{"links": workflow.Lit([]string{"l"})}), false},
		"an extra binding": {run(map[string]workflow.Binding{"links": workflow.Ref("s2", "links"), "k": workflow.Lit(1.0)}), false},
		"other capabilities": {[]workflow.Step{
			{ID: "s2", Capability: "src.load"},
			{ID: "s3", Capability: "mid.extract", Inputs: map[string]workflow.Binding{"links": workflow.Ref("s2", "links")}},
		}, false},
	} {
		if got := spells(c.run, chain); got != c.want {
			t.Errorf("%s: spells = %v, want %v", label, got, c.want)
		}
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

// rollbackRegistry holds two producers of an impact report:
// bad.impact, ranked first, backward-chains geo.fresh and then fails on
// a cable list nothing produces; good.impact needs only links.
func rollbackRegistry(t testing.TB) *registry.Registry {
	t.Helper()
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
	return reg
}

// TestFailedAttemptRollsBack plans through a producer that chains a
// step and then fails: bad.impact backward-chains geo.fresh, which
// overwrites the links artifact and adds a geo one, then finds nothing
// producing cable.list. The rollback must drop that step and restore
// the artifacts, so the next producer, good.impact, reads the links
// the dependencies sub-problem produced and leaves its optional geo
// input unbound. The dropped step keeps its ID.
func TestFailedAttemptRollsBack(t *testing.T) {
	reg := rollbackRegistry(t)
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

// TestDuplicateCandidatesKeepFirst explores over rollbackRegistry:
// the base plan tries bad.impact, rolls it back and settles on
// good.impact, so forcing good.impact, the aggregation's alternative,
// plans the base's capability sequence again. That duplicate is
// dropped, and the base plan, whose good.impact step is s3 because
// the rolled-back geo.fresh took s2, is the one kept.
func TestDuplicateCandidatesKeepFirst(t *testing.T) {
	d, err := New().Design(cableProblem(5), rollbackRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range d.Alternatives {
		seq := strings.Join(c.Workflow.CapabilityNames(), " ")
		if seen[seq] {
			t.Errorf("candidate %s explored twice", seq)
		}
		seen[seq] = true
		if seq == "src.load good.impact" && c.Workflow.Steps[1].ID != "s3" {
			t.Errorf("kept the duplicate (good.impact is %s), not the base plan (s3)", c.Workflow.Steps[1].ID)
		}
	}
	if !seen["src.load good.impact"] {
		t.Errorf("base plan missing from %d alternatives", len(d.Alternatives))
	}
}

// TestLastMatchingOutput plans through a capability with two outputs
// of the sub-problem's type: the sub-problem's artifact, and so the
// workflow output, is the last of them.
func TestLastMatchingOutput(t *testing.T) {
	reg := miniRegistry(t)
	reg.MustRegister(registry.Capability{
		Name: "twin.impact", Framework: "twin", Description: "two impact reports",
		Inputs:  []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Outputs: []registry.Port{{Name: "first", Type: registry.TImpact}, {Name: "last", Type: registry.TImpact}},
		Tags:    []string{"aggregation", "country-level", "impact-analysis", "twin"},
		Cost:    1, Impl: func(c *registry.Call) error { return nil },
	})
	d, err := New().Design(cableProblem(1), reg)
	if err != nil {
		t.Fatal(err)
	}
	last := d.Chosen.Steps[len(d.Chosen.Steps)-1]
	if last.Capability != "twin.impact" {
		t.Fatalf("plan = %v, want twin.impact last", d.Chosen.CapabilityNames())
	}
	if got, want := d.Chosen.Outputs["aggregation"], last.ID+".last"; got != want {
		t.Errorf("aggregation output = %s, want %s", got, want)
	}
}

// TestDesignSharedZeroAgent designs from two goroutines with one
// zero-valued Agent: Design must apply the defaults without writing
// them back, so the Agent stays zero and -race sees no write.
func TestDesignSharedZeroAgent(t *testing.T) {
	reg := miniRegistry(t)
	want, err := New().Design(cableProblem(5), reg)
	if err != nil {
		t.Fatal(err)
	}
	a := &Agent{}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				d, err := a.Design(cableProblem(5), reg)
				if err != nil {
					t.Error(err)
					return
				}
				if d.Strategy != want.Strategy || d.Explored != want.Explored {
					t.Errorf("zero Agent designed %s/%d, New() %s/%d", d.Strategy, d.Explored, want.Strategy, want.Explored)
					return
				}
			}
		}()
	}
	wg.Wait()
	if *a != (Agent{}) {
		t.Errorf("Design wrote its receiver: %+v", *a)
	}
}

// errorRegistry holds three producers of an impact report, each of
// which fails in its own way in a Subset that drops what it needs:
// big.impact reads links that only src.load produces; deep.impact
// chains five producers deep, one more than maxChainDepth allows; and
// weigh.impact reads a scalar "weight" that score.source exports only
// under another name.
func errorRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	r := miniRegistry(t)
	emit := func(c *registry.Call) error { return nil }
	chain := []registry.DataType{registry.TImpact, registry.TGeoTable, registry.TIPSet,
		registry.TCableList, registry.TCableID, registry.TCrossLayer}
	names := []string{"deep.impact", "deep.geo", "deep.ips", "deep.cables", "deep.id", "deep.map"}
	for i, name := range names {
		c := registry.Capability{
			Name: name, Framework: "deep", Description: "one link of a long chain",
			Outputs: []registry.Port{{Name: "out", Type: chain[i]}}, Impl: emit,
		}
		if i+1 < len(chain) {
			c.Inputs = []registry.Port{{Name: "in", Type: chain[i+1]}}
		}
		r.MustRegister(c)
	}
	r.MustRegister(registry.Capability{
		Name: "weigh.impact", Framework: "weigh", Description: "weighted impact",
		Inputs: []registry.Port{
			{Name: "links", Type: registry.TLinkSet},
			{Name: "weight", Type: registry.TFloat},
		},
		Outputs: []registry.Port{{Name: "report", Type: registry.TImpact}},
		Impl:    emit,
	})
	r.MustRegister(registry.Capability{
		Name: "score.source", Framework: "score", Description: "a float under another name",
		Outputs: []registry.Port{{Name: "score", Type: registry.TFloat}},
		Impl:    emit,
	})
	return r
}

// TestDesignErrorTexts pins the text of Design's error, and of every
// error down its Unwrap chain, when no producer is left, when chaining
// runs too deep and when no producer exports a scalar port, as the
// fmt.Errorf chains before planError wrote them.
func TestDesignErrorTexts(t *testing.T) {
	full := errorRegistry(t)
	ps := cableProblem(1)
	ps.SubProblems = ps.SubProblems[1:] // aggregation alone
	ps.SubProblems[0].DependsOn = nil
	for _, tc := range []struct {
		label string
		caps  []string
		chain []string
	}{
		{"no producer", []string{"big.impact"}, []string{
			`workflowscout: sub-problem "aggregation": input "links" (link.set) of big.impact: no capability produces link.set`,
			`input "links" (link.set) of big.impact: no capability produces link.set`,
			`no capability produces link.set`,
		}},
		{"chaining depth", []string{"deep.impact", "deep.geo", "deep.ips", "deep.cables", "deep.id", "deep.map"}, []string{
			`workflowscout: sub-problem "aggregation": input "in" (geo.table) of deep.impact: input "in" (ip.set) of deep.geo: input "in" (cable.list) of deep.ips: input "in" (cable.id) of deep.cables: input "in" (cable.crosslayermap) of deep.id: chaining depth exceeded for cable.crosslayermap`,
			`input "in" (geo.table) of deep.impact: input "in" (ip.set) of deep.geo: input "in" (cable.list) of deep.ips: input "in" (cable.id) of deep.cables: input "in" (cable.crosslayermap) of deep.id: chaining depth exceeded for cable.crosslayermap`,
			`input "in" (ip.set) of deep.geo: input "in" (cable.list) of deep.ips: input "in" (cable.id) of deep.cables: input "in" (cable.crosslayermap) of deep.id: chaining depth exceeded for cable.crosslayermap`,
			`input "in" (cable.list) of deep.ips: input "in" (cable.id) of deep.cables: input "in" (cable.crosslayermap) of deep.id: chaining depth exceeded for cable.crosslayermap`,
			`input "in" (cable.id) of deep.cables: input "in" (cable.crosslayermap) of deep.id: chaining depth exceeded for cable.crosslayermap`,
			`input "in" (cable.crosslayermap) of deep.id: chaining depth exceeded for cable.crosslayermap`,
			`chaining depth exceeded for cable.crosslayermap`,
		}},
		{"scalar port", []string{"src.load", "weigh.impact", "score.source"}, []string{
			`workflowscout: sub-problem "aggregation": input "weight" (scalar.float) of weigh.impact: no producer exports scalar port "weight" of type scalar.float`,
			`input "weight" (scalar.float) of weigh.impact: no producer exports scalar port "weight" of type scalar.float`,
			`no producer exports scalar port "weight" of type scalar.float`,
		}},
	} {
		sub, err := full.Subset(tc.caps...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New().Design(ps, sub)
		var got []string
		for ; err != nil; err = errors.Unwrap(err) {
			got = append(got, err.Error())
		}
		if !slices.Equal(got, tc.chain) {
			t.Errorf("%s: error chain\n%s\nwant\n%s", tc.label, strings.Join(got, "\n"), strings.Join(tc.chain, "\n"))
		}
	}
}
