package solutionweaver

import (
	"context"
	"strings"
	"testing"

	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

type fakeImpact struct{ countries []string }

func (f fakeImpact) TopCountries(n int) []string {
	if n > len(f.countries) {
		n = len(f.countries)
	}
	return f.countries[:n]
}

type fakeFinding struct{ Confidence float64 }

func testRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	r := registry.New()
	r.MustRegister(registry.Capability{
		Name: "t.links", Framework: "nautilus", Description: "produce links",
		Inputs:      []registry.Port{{Name: "name", Type: registry.TString}},
		Outputs:     []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Constraints: []string{"needs a cross-layer map"},
		Cost:        2,
		Impl: func(c *registry.Call) error {
			c.Out["links"] = []int{1, 2, 3}
			return nil
		},
	})
	r.MustRegister(registry.Capability{
		Name: "t.impact", Framework: "xaminer", Description: "produce impact",
		Inputs:  []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Outputs: []registry.Port{{Name: "report", Type: registry.TImpact}},
		Cost:    3,
		Impl: func(c *registry.Call) error {
			c.Out["report"] = fakeImpact{countries: []string{"FR", "EG"}}
			return nil
		},
	})
	r.MustRegister(registry.Capability{
		Name: "t.anomaly", Framework: "traceroute", Description: "produce anomaly",
		Outputs: []registry.Port{{Name: "anomaly", Type: registry.TAnomaly}},
		Cost:    1,
		Impl: func(c *registry.Call) error {
			c.Out["anomaly"] = fakeFinding{Confidence: 0.7}
			return nil
		},
	})
	return r
}

func design() *workflow.Workflow {
	return &workflow.Workflow{
		Name:  "test-design",
		Query: "what is the impact of cable X",
		Steps: []workflow.Step{
			{ID: "s1", Capability: "t.links", Inputs: workflow.Inputs{{Name: "name", Binding: workflow.Lit("cable-x")}}},
			{ID: "s2", Capability: "t.impact", Inputs: workflow.Inputs{{Name: "links", Binding: workflow.Ref("s1", "links")}}},
		},
		Outputs: map[string]string{"impact": "s2.report"},
	}
}

func TestWeaveAddsChecks(t *testing.T) {
	reg := testRegistry(t)
	sol, err := New().Weave(design(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if sol.ChecksAdded == 0 {
		t.Fatal("no checks woven")
	}
	kinds := map[workflow.QualityKind]bool{}
	for _, c := range sol.Workflow.Checks {
		kinds[c.Kind] = true
	}
	if !kinds[workflow.CheckSanity] {
		t.Errorf("check kinds = %v", kinds)
	}
	// The original design must stay pristine.
	if len(design().Checks) != 0 {
		t.Error("design mutated")
	}
}

func TestWeaveChecksExecute(t *testing.T) {
	reg := testRegistry(t)
	sol, err := New().Weave(design(), reg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workflow.NewEngine(reg, nil).Run(context.Background(), sol.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checks) != sol.ChecksAdded {
		t.Errorf("checks run = %d, woven = %d", len(res.Checks), sol.ChecksAdded)
	}
	if res.QualityScore() != 1 {
		for _, c := range res.Checks {
			t.Logf("check %s: passed=%v note=%s", c.Name, c.Passed, c.Note)
		}
		t.Errorf("quality = %f", res.QualityScore())
	}
}

func TestWeaveAnomalyUncertaintyCheck(t *testing.T) {
	reg := testRegistry(t)
	wf := &workflow.Workflow{
		Name:  "anomaly",
		Steps: []workflow.Step{{ID: "a", Capability: "t.anomaly"}},
	}
	sol, err := New().Weave(wf, reg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workflow.NewEngine(reg, nil).Run(context.Background(), sol.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Checks {
		if c.Kind == workflow.CheckUncertainty {
			found = true
			if !c.Passed || !strings.Contains(c.Note, "0.70") {
				t.Errorf("uncertainty check = %+v", c)
			}
		}
	}
	if !found {
		t.Error("no uncertainty check for anomaly output")
	}
}

func TestWeaveRejectsInvalidDesign(t *testing.T) {
	reg := testRegistry(t)
	bad := design()
	bad.Steps[1].Inputs[0].Binding = workflow.Ref("zzz", "links")
	if _, err := New().Weave(bad, reg); err == nil {
		t.Error("invalid design accepted")
	}
	if _, err := New().Weave(nil, reg); err == nil {
		t.Error("nil workflow accepted")
	}
}

func TestGeneratedCodeStructure(t *testing.T) {
	reg := testRegistry(t)
	sol, err := New().Weave(design(), reg)
	if err != nil {
		t.Fatal(err)
	}
	code := sol.Code()
	for _, want := range []string{
		"#!/usr/bin/env python3",
		"Query: what is the impact of cable X",
		"from measurement_registry import nautilus",
		"from measurement_registry import xaminer",
		"def step_s1(name):",
		"def step_s2(links):",
		"Constraint: needs a cross-layer map",
		"def run_quality_checks(artifacts):",
		"def render_impact_table(report):",
		`rows.append("failed links: %d" % report.failed_links)`,
		"def main():",
		`if __name__ == "__main__":`,
	} {
		if !strings.Contains(code, want) {
			t.Errorf("code missing %q", want)
		}
	}
	if sol.LoC() < 50 {
		t.Errorf("LoC = %d, implausibly small", sol.LoC())
	}
	if sol.Language == "" {
		t.Error("language not set")
	}
}

func TestLoCCountsNonEmpty(t *testing.T) {
	if n := linesOfCode([]byte("a\n\nb\n  \nc")); n != 3 {
		t.Errorf("linesOfCode = %d, want 3", n)
	}
	if linesOfCode(nil) != 0 {
		t.Error("empty code must be 0 LoC")
	}
	// strings.TrimSpace's rule: Unicode white space is blank, an
	// invalid byte is not.
	for code, want := range map[string]int{
		"\u00a0\n\u3000\t\r\n\u2028x\n": 1,
		"\x85\n\xe2\x80\n\xff":          3,
		" \v\f\n\u0085\n\n":             0,
		"é\n  \u00a0é":                  2,
	} {
		if n := linesOfCode([]byte(code)); n != want {
			t.Errorf("linesOfCode(%q) = %d, want %d", code, n, want)
		}
	}
}

func TestPyLiteral(t *testing.T) {
	cases := map[string]any{
		`"x"`:        "x",
		"True":       true,
		"False":      false,
		"3.5":        3.5,
		"7":          7,
		`["a", "b"]`: []string{"a", "b"},
		"None":       nil,
	}
	for want, in := range cases {
		if got := string(appendPyLiteral(nil, in)); got != want {
			t.Errorf("appendPyLiteral(%v) = %s, want %s", in, got, want)
		}
	}
}

func TestSanitizeIdent(t *testing.T) {
	if got := string(appendIdent(nil, "bgp.detect-bursts")); got != "bgp_detect_bursts" {
		t.Errorf("appendIdent = %q", got)
	}
}

func TestLenOfAndConfidence(t *testing.T) {
	if lenOf([]int{1, 2}) != 2 {
		t.Error("lenOf slice")
	}
	if lenOf(map[string]int{"a": 1}) != 1 {
		t.Error("lenOf map")
	}
	if lenOf(42) != -1 {
		t.Error("lenOf scalar")
	}
	if c, ok := confidenceOf(fakeFinding{Confidence: 0.5}); !ok || c != 0.5 {
		t.Errorf("confidenceOf = %f, %v", c, ok)
	}
	if _, ok := confidenceOf(42); ok {
		t.Error("confidenceOf scalar should miss")
	}
	if c, ok := confidenceOf(&fakeFinding{Confidence: 0.3}); !ok || c != 0.3 {
		t.Errorf("confidenceOf pointer = %f, %v", c, ok)
	}
}
