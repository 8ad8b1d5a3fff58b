package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"arachnet/internal/registry"
)

// buildTestRegistry creates a tiny three-capability pipeline:
// source (→int) → double (int→int) → render (int→string).
func buildTestRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	r := registry.New()
	r.MustRegister(registry.Capability{
		Name: "test.source", Framework: "test", Description: "produce a number",
		Inputs:  []registry.Port{{Name: "value", Type: registry.TInt}},
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl: func(c *registry.Call) error {
			v, err := c.Input("value")
			if err != nil {
				return err
			}
			c.Out["n"] = v.(int)
			return nil
		},
	})
	r.MustRegister(registry.Capability{
		Name: "test.double", Framework: "test", Description: "double a number",
		Inputs:  []registry.Port{{Name: "n", Type: registry.TInt}},
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl: func(c *registry.Call) error {
			v, err := c.Input("n")
			if err != nil {
				return err
			}
			c.Out["n"] = v.(int) * 2
			return nil
		},
	})
	r.MustRegister(registry.Capability{
		Name: "test.render", Framework: "render", Description: "render a number",
		Inputs:  []registry.Port{{Name: "n", Type: registry.TInt}},
		Outputs: []registry.Port{{Name: "text", Type: registry.TString}},
		Impl: func(c *registry.Call) error {
			v, err := c.Input("n")
			if err != nil {
				return err
			}
			c.Out["text"] = fmt.Sprintf("value=%d", v.(int))
			return nil
		},
	})
	r.MustRegister(registry.Capability{
		Name: "test.fail", Framework: "test", Description: "always fails",
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl:    func(c *registry.Call) error { return errors.New("boom") },
	})
	r.MustRegister(registry.Capability{
		Name: "test.badimpl", Framework: "test", Description: "forgets its output",
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl:    func(c *registry.Call) error { return nil },
	})
	return r
}

func pipeline() *Workflow {
	return &Workflow{
		Name: "test-pipeline",
		Steps: []Step{
			{ID: "src", Capability: "test.source", Inputs: Inputs{{"value", Lit(21)}}},
			{ID: "dbl", Capability: "test.double", Inputs: Inputs{{"n", Ref("src", "n")}}},
			{ID: "out", Capability: "test.render", Inputs: Inputs{{"n", Ref("dbl", "n")}}},
		},
		Outputs: map[string]string{"text": "out.text"},
	}
}

func TestRunPipeline(t *testing.T) {
	reg := buildTestRegistry(t)
	eng := NewEngine(reg, nil)
	res, err := eng.Run(context.Background(), pipeline())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["text"] != "value=42" {
		t.Errorf("output = %v", res.Outputs["text"])
	}
	if len(res.Steps) != 3 {
		t.Errorf("steps = %d", len(res.Steps))
	}
	if len(res.Provenance) != 3 {
		t.Errorf("provenance lines = %d", len(res.Provenance))
	}
	if res.QualityScore() != 1 {
		t.Errorf("quality with no checks = %f", res.QualityScore())
	}
}

func TestValidateCatchesEverything(t *testing.T) {
	reg := buildTestRegistry(t)

	cases := []struct {
		label string
		mut   func(w *Workflow)
		want  error
	}{
		{"empty", func(w *Workflow) { w.Steps = nil }, ErrEmptyWorkflow},
		{"unknown cap", func(w *Workflow) { w.Steps[0].Capability = "test.zzz" }, ErrUnknownCap},
		{"dup id", func(w *Workflow) { w.Steps[1].ID = "src" }, ErrDuplicateStep},
		{"unbound", func(w *Workflow) { w.Steps[1].Inputs = nil }, ErrUnboundInput},
		{"forward ref", func(w *Workflow) { w.Steps[1].Inputs[0].Binding = Ref("out", "text") }, ErrBadRef},
		{"type mismatch", func(w *Workflow) {
			w.Steps[2].Inputs[0].Binding = Ref("src", "n")
			w.Steps = append(w.Steps, Step{
				ID: "bad", Capability: "test.double",
				Inputs: Inputs{{"n", Ref("out", "text")}},
			})
		}, ErrTypeMismatch},
		{"self ref", func(w *Workflow) { w.Steps[1].Inputs[0].Binding = Ref("dbl", "n") }, ErrBadRef},
		{"bad output ref", func(w *Workflow) { w.Outputs["text"] = "nope.n" }, ErrBadRef},
		{"inputs out of order", func(w *Workflow) {
			w.Steps[0].Inputs = Inputs{{"value", Lit(21)}, {"mystery", Lit(1)}}
		}, ErrInputOrder},
		{"duplicate input", func(w *Workflow) {
			w.Steps[0].Inputs = Inputs{{"value", Lit(21)}, {"value", Lit(1)}}
		}, ErrInputOrder},
		// The order is checked before anything else: a later step's
		// order wins over an earlier step's empty ID.
		{"order first", func(w *Workflow) {
			w.Steps[0].ID = ""
			w.Steps[2].Inputs = append(w.Steps[2].Inputs, Input{"m", Lit(1)})
		}, ErrInputOrder},
	}
	for _, tc := range cases {
		w := pipeline()
		tc.mut(w)
		err := w.Validate(reg)
		if err == nil {
			t.Errorf("%s: validation passed", tc.label)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.label, err, tc.want)
		}
	}
}

func TestValidateUnknownBinding(t *testing.T) {
	reg := buildTestRegistry(t)
	w := pipeline()
	w.Steps[0].Inputs = append(Inputs{{"mystery", Lit(1)}}, w.Steps[0].Inputs...)
	if err := w.Validate(reg); err == nil {
		t.Error("unknown input binding must fail validation")
	}
}

func TestRunStepFailure(t *testing.T) {
	reg := buildTestRegistry(t)
	eng := NewEngine(reg, nil)
	w := &Workflow{
		Name:  "failing",
		Steps: []Step{{ID: "f", Capability: "test.fail"}},
	}
	res, err := eng.Run(context.Background(), w)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), `"f"`) {
		t.Errorf("error lacks context: %v", err)
	}
	if len(res.Steps) != 1 || res.Steps[0].Err == nil {
		t.Error("failed step not recorded")
	}
}

func TestRunContractViolation(t *testing.T) {
	reg := buildTestRegistry(t)
	eng := NewEngine(reg, nil)
	w := &Workflow{Name: "bad", Steps: []Step{{ID: "b", Capability: "test.badimpl"}}}
	if _, err := eng.Run(context.Background(), w); err == nil || !strings.Contains(err.Error(), "did not produce") {
		t.Errorf("contract violation not detected: %v", err)
	}
}

func TestOptionalInputs(t *testing.T) {
	r := registry.New()
	r.MustRegister(registry.Capability{
		Name: "t.opt", Framework: "t", Description: "optional input",
		Inputs:  []registry.Port{{Name: "maybe", Type: registry.TInt, Optional: true}},
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl: func(c *registry.Call) error {
			if v, ok := c.In["maybe"]; ok {
				c.Out["n"] = v.(int)
			} else {
				c.Out["n"] = -1
			}
			return nil
		},
	})
	w := &Workflow{Name: "opt", Steps: []Step{{ID: "a", Capability: "t.opt"}}}
	res, err := NewEngine(r, nil).Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["a.n"] != -1 {
		t.Errorf("optional default = %v", res.Values["a.n"])
	}
}

func TestQualityChecks(t *testing.T) {
	reg := buildTestRegistry(t)
	w := pipeline()
	w.Checks = []QualityCheck{
		{
			Name: "n-positive", Kind: CheckSanity, Ref: "dbl.n",
			Assert: func(v any) (bool, string) { return v.(int) > 0, "n must be positive" },
		},
		{
			Name: "n-small", Kind: CheckConsistency, Ref: "dbl.n",
			Assert: func(v any) (bool, string) { return v.(int) < 10, "n must be < 10" },
		},
	}
	res, err := NewEngine(reg, nil).Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checks) != 2 {
		t.Fatalf("checks = %d", len(res.Checks))
	}
	if !res.Checks[0].Passed || res.Checks[1].Passed {
		t.Errorf("check outcomes wrong: %+v", res.Checks)
	}
	if q := res.QualityScore(); q != 0.5 {
		t.Errorf("quality = %f, want 0.5", q)
	}
}

func TestQualityCheckValidation(t *testing.T) {
	reg := buildTestRegistry(t)
	w := pipeline()
	w.Checks = []QualityCheck{{Name: "dangling", Kind: CheckSanity, Ref: "zzz.n",
		Assert: func(any) (bool, string) { return true, "" }}}
	if err := w.Validate(reg); err == nil {
		t.Error("dangling check ref must fail")
	}
	w = pipeline()
	w.Checks = []QualityCheck{{Name: "nil-assert", Kind: CheckSanity, Ref: "dbl.n"}}
	if err := w.Validate(reg); err == nil {
		t.Error("nil assertion must fail")
	}
}

func TestEnvPassedToCalls(t *testing.T) {
	r := registry.New()
	r.MustRegister(registry.Capability{
		Name: "t.env", Framework: "t", Description: "reads env",
		Outputs: []registry.Port{{Name: "s", Type: registry.TString}},
		Impl: func(c *registry.Call) error {
			c.Out["s"] = c.Env.(string)
			return nil
		},
	})
	w := &Workflow{Name: "env", Steps: []Step{{ID: "e", Capability: "t.env"}},
		Outputs: map[string]string{"s": "e.s"}}
	res, err := NewEngine(r, "the-environment").Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["s"] != "the-environment" {
		t.Errorf("env = %v", res.Outputs["s"])
	}
}

func TestFrameworksAndDescribe(t *testing.T) {
	reg := buildTestRegistry(t)
	w := pipeline()
	fws := w.Frameworks(reg)
	if len(fws) != 2 || fws[0] != "render" || fws[1] != "test" {
		t.Errorf("frameworks = %v", fws)
	}
	d := w.Describe()
	for _, want := range []string{"test-pipeline", "test.source", "dbl.n", "outputs:"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
	caps := w.CapabilityNames()
	if len(caps) != 3 || caps[0] != "test.source" {
		t.Errorf("CapabilityNames = %v", caps)
	}
}

func BenchmarkRunPipeline(b *testing.B) {
	reg := buildTestRegistry(b)
	eng := NewEngine(reg, nil)
	w := pipeline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), w); err != nil {
			b.Fatal(err)
		}
	}
}
