package registrycurator

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// chainRegistry provides a 3-step liftable chain a→b→c.
func chainRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	r := registry.New()
	r.MustRegister(registry.Capability{
		Name: "t.a", Framework: "t", Description: "step a",
		Inputs:  []registry.Port{{Name: "seed", Type: registry.TString}},
		Outputs: []registry.Port{{Name: "x", Type: registry.TLinkSet}},
		Tags:    []string{"link-extraction"}, Cost: 1,
		Impl: func(c *registry.Call) error {
			s, err := c.Input("seed")
			if err != nil {
				return err
			}
			c.Out["x"] = []string{s.(string), "x"}
			return nil
		},
	})
	r.MustRegister(registry.Capability{
		Name: "t.b", Framework: "t", Description: "step b",
		Inputs:  []registry.Port{{Name: "x", Type: registry.TLinkSet}},
		Outputs: []registry.Port{{Name: "y", Type: registry.TIPSet}},
		Tags:    []string{"ip-extraction"}, Cost: 1,
		Impl: func(c *registry.Call) error {
			v, err := c.Input("x")
			if err != nil {
				return err
			}
			c.Out["y"] = append(v.([]string), "y")
			return nil
		},
	})
	r.MustRegister(registry.Capability{
		Name: "t.c", Framework: "u", Description: "step c",
		Inputs:  []registry.Port{{Name: "y", Type: registry.TIPSet}},
		Outputs: []registry.Port{{Name: "z", Type: registry.TImpact}},
		Tags:    []string{"aggregation"}, Cost: 2,
		Impl: func(c *registry.Call) error {
			v, err := c.Input("y")
			if err != nil {
				return err
			}
			c.Out["z"] = append(v.([]string), "z")
			return nil
		},
	})
	return r
}

func chainWorkflow(query string) *workflow.Workflow {
	return &workflow.Workflow{
		Name:  "wf",
		Query: query,
		Steps: []workflow.Step{
			{ID: "s1", Capability: "t.a", Inputs: workflow.Inputs{{Name: "seed", Binding: workflow.Lit("s")}}, Phase: "load"},
			{ID: "s2", Capability: "t.b", Inputs: workflow.Inputs{{Name: "x", Binding: workflow.Ref("s1", "x")}}, Phase: "auto"},
			{ID: "s3", Capability: "t.c", Inputs: workflow.Inputs{{Name: "y", Binding: workflow.Ref("s2", "y")}}, Phase: "aggregate"},
		},
		Outputs: map[string]string{"z": "s3.z"},
	}
}

func observe(t testing.TB, reg *registry.Registry, query string) Observation {
	t.Helper()
	wf := chainWorkflow(query)
	res, err := workflow.NewEngine(reg, nil).Run(context.Background(), wf)
	if err != nil {
		t.Fatal(err)
	}
	return Observation{Workflow: wf, Result: res}
}

func TestNoPromotionBelowSupport(t *testing.T) {
	reg := chainRegistry(t)
	history := []Observation{observe(t, reg, "query one")}
	promos, err := New().Curate(history, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(promos) != 0 {
		t.Errorf("promoted with support 1: %v", promos)
	}
}

func TestPromotionAtSupport(t *testing.T) {
	reg := chainRegistry(t)
	history := []Observation{
		observe(t, reg, "query one"),
		observe(t, reg, "query two"),
	}
	promos, err := New().Curate(history, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(promos) == 0 {
		t.Fatal("no promotion at support 2")
	}
	p := promos[0]
	if p.Support != 2 {
		t.Errorf("support = %d", p.Support)
	}
	if !p.Capability.Composite || p.Capability.Framework != "composite" {
		t.Errorf("capability = %+v", p.Capability)
	}
	if !reg.Has(p.Capability.Name) {
		t.Error("promotion not registered")
	}
	// Pattern must end at a sub-problem boundary (s3, phase aggregate).
	if p.Pattern[len(p.Pattern)-1] != "t.c" {
		t.Errorf("pattern = %v", p.Pattern)
	}
	// Tags merged plus composite marker.
	tagStr := strings.Join(p.Capability.Tags, " ")
	for _, want := range []string{"composite", "aggregation"} {
		if !strings.Contains(tagStr, want) {
			t.Errorf("tags = %v", p.Capability.Tags)
		}
	}
}

func TestCompositeExecutes(t *testing.T) {
	reg := chainRegistry(t)
	history := []Observation{
		observe(t, reg, "q1"),
		observe(t, reg, "q2"),
	}
	promos, err := New().Curate(history, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(promos) == 0 {
		t.Fatal("nothing promoted")
	}
	comp := promos[0].Capability

	// Execute the composite via a one-step workflow.
	var inputs workflow.Inputs // the head's ports, in name order
	for _, in := range comp.Inputs {
		switch in.Type {
		case registry.TString:
			inputs = append(inputs, workflow.Input{Name: in.Name, Binding: workflow.Lit("fresh")})
		case registry.TLinkSet:
			inputs = append(inputs, workflow.Input{Name: in.Name, Binding: workflow.Lit([]string{"fresh", "x"})})
		}
	}
	wf := &workflow.Workflow{
		Name:    "use-composite",
		Steps:   []workflow.Step{{ID: "u", Capability: comp.Name, Inputs: inputs}},
		Outputs: map[string]string{"z": "u." + comp.Outputs[0].Name},
	}
	res, err := workflow.NewEngine(reg, nil).Run(context.Background(), wf)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := res.Outputs["z"].([]string)
	if !ok {
		t.Fatalf("composite output = %T", res.Outputs["z"])
	}
	if out[len(out)-1] != "z" {
		t.Errorf("composite chain incomplete: %v", out)
	}
}

func TestIdempotentCuration(t *testing.T) {
	reg := chainRegistry(t)
	history := []Observation{observe(t, reg, "q1"), observe(t, reg, "q2")}
	first, err := New().Curate(history, reg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := New().Curate(history, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(second) != 0 {
		t.Errorf("curation not idempotent: %d then %d", len(first), len(second))
	}
}

func TestFailedRunsDontCount(t *testing.T) {
	reg := chainRegistry(t)
	good := observe(t, reg, "q1")
	bad := Observation{Workflow: good.Workflow, Result: good.Result, Err: errStub{}}
	promos, err := New().Curate([]Observation{good, bad}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(promos) != 0 {
		t.Error("failed observation counted toward support")
	}
}

type errStub struct{}

func (errStub) Error() string { return "stub" }

func TestLowQualityRejected(t *testing.T) {
	reg := chainRegistry(t)
	o1 := observe(t, reg, "q1")
	o2 := observe(t, reg, "q2")
	// Poison the quality score with failed checks.
	for _, o := range []Observation{o1, o2} {
		o.Result.Checks = append(o.Result.Checks,
			workflow.CheckResult{Name: "x", Passed: false},
			workflow.CheckResult{Name: "y", Passed: false},
			workflow.CheckResult{Name: "z", Passed: false},
		)
	}
	promos, err := New().Curate([]Observation{o1, o2}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(promos) != 0 {
		t.Error("low-quality pattern promoted")
	}
}

// capsOf resolves the capability of each step of win in reg.
func capsOf(reg *registry.Registry, win []workflow.Step) []*registry.Capability {
	caps := make([]*registry.Capability, len(win))
	for i, s := range win {
		caps[i], _ = reg.Get(s.Capability)
	}
	return caps
}

func TestChainIsLiftable(t *testing.T) {
	reg := chainRegistry(t)
	wf := chainWorkflow("q")
	liftable := func(win []workflow.Step) bool { return chainIsLiftable(win, capsOf(reg, win)) }
	// Full window s1..s3 liftable.
	if !liftable(wf.Steps[0:3]) {
		t.Error("s1..s3 should be liftable")
	}
	// Window s2..s3 liftable (head refs external s1).
	if !liftable(wf.Steps[1:3]) {
		t.Error("s2..s3 should be liftable")
	}
	// A window whose tail references outside is not liftable.
	broken := []workflow.Step{
		wf.Steps[0],
		{ID: "s9", Capability: "t.c", Inputs: workflow.Inputs{{Name: "y", Binding: workflow.Ref("outside", "y")}}},
	}
	if liftable(broken) {
		t.Error("external tail ref must not be liftable")
	}
	// Nor is one whose later step binds a literal, which the chain
	// would have to store.
	literal := []workflow.Step{
		wf.Steps[0],
		{ID: "s2", Capability: "t.b", Inputs: workflow.Inputs{{Name: "x", Binding: workflow.Lit([]string{"frozen"})}}},
	}
	if liftable(literal) {
		t.Error("a later step's literal must not be liftable")
	}
	// Nor one whose later step leaves an optional input unbound: another
	// question may bind it.
	reg.MustRegister(registry.Capability{
		Name: "t.d", Framework: "t", Description: "step d",
		Inputs:  []registry.Port{{Name: "x", Type: registry.TLinkSet}, {Name: "k", Type: registry.TFloat, Optional: true}},
		Outputs: []registry.Port{{Name: "y", Type: registry.TIPSet}},
		Impl:    func(*registry.Call) error { return nil },
	})
	optional := []workflow.Step{
		wf.Steps[0],
		{ID: "s2", Capability: "t.d", Inputs: workflow.Inputs{{Name: "x", Binding: workflow.Ref("s1", "x")}}},
	}
	if liftable(optional) {
		t.Error("a later step's unbound optional input must not be liftable")
	}
	// Nor one holding a composite.
	promote(t, reg)
	nested := []workflow.Step{
		{ID: "s1", Capability: "composite.a_to_c_3", Inputs: workflow.Inputs{{Name: "seed", Binding: workflow.Lit("s")}}},
		wf.Steps[1],
	}
	nested[1].Inputs = workflow.Inputs{{Name: "x", Binding: workflow.Ref("s1", "z")}}
	if liftable(nested) {
		t.Error("a window holding a composite must not be liftable")
	}
}

// promote curates two observations of chainWorkflow into reg and
// returns the promoted composite, composite.a_to_c_3.
func promote(t *testing.T, reg *registry.Registry) registry.Capability {
	t.Helper()
	promos, err := New().Curate([]Observation{observe(t, reg, "q1"), observe(t, reg, "q2")}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(promos) != 1 || promos[0].Capability.Name != "composite.a_to_c_3" {
		t.Fatalf("promotions = %+v", promos)
	}
	return promos[0].Capability
}

// TestCompositeIsItsChain pins the promoted capability's shape: the
// head's input ports exactly as they are, the tail's outputs, and a
// chain whose later steps bind each input to an earlier step, with no
// implementation and nothing frozen from the observed runs.
func TestCompositeIsItsChain(t *testing.T) {
	reg := chainRegistry(t)
	c := promote(t, reg)
	head, _ := reg.Get("t.a")
	tail, _ := reg.Get("t.c")
	if !reflect.DeepEqual(c.Inputs, head.Inputs) || !reflect.DeepEqual(c.Outputs, tail.Outputs) {
		t.Errorf("ports %v → %v, want the head's inputs %v and the tail's outputs %v", c.Inputs, c.Outputs, head.Inputs, tail.Outputs)
	}
	want := []registry.ChainStep{
		{Capability: "t.a"},
		{Capability: "t.b", In: map[string]registry.ChainRef{"x": {Step: 0, Port: "x"}}},
		{Capability: "t.c", In: map[string]registry.ChainRef{"y": {Step: 1, Port: "y"}}},
	}
	if !reflect.DeepEqual(c.Chain, want) {
		t.Errorf("chain = %+v, want %+v", c.Chain, want)
	}
	if c.Impl != nil || c.Pure || len(c.Reads) > 0 {
		t.Error("a composite carries an implementation, purity or reads of its own")
	}
}

func TestObservationSucceeded(t *testing.T) {
	if (Observation{}).Succeeded() {
		t.Error("empty observation cannot have succeeded")
	}
	reg := chainRegistry(t)
	o := observe(t, reg, "q")
	if !o.Succeeded() {
		t.Error("good observation reported failed")
	}
}
