package arachnet_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"arachnet"
	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/eval"
	"arachnet/internal/nlq"
	"arachnet/internal/workflow"
)

// The frozen types below are a Report as it was shaped while a step's
// Inputs were a map[string]workflow.Binding: Step as it was, and every
// type between it and the Report, with the same fields and JSON tags.

type frozenStep struct {
	ID         string                      `json:"id"`
	Capability string                      `json:"capability"`
	Inputs     map[string]workflow.Binding `json:"inputs,omitempty"`
	Phase      string                      `json:"phase,omitempty"`
	Note       string                      `json:"note,omitempty"`
	Affinity   string                      `json:"affinity,omitempty"`
}

type frozenWorkflow struct {
	Name    string                  `json:"name"`
	Query   string                  `json:"query,omitempty"`
	Steps   []frozenStep            `json:"steps"`
	Outputs map[string]string       `json:"outputs,omitempty"`
	Checks  []workflow.QualityCheck `json:"checks,omitempty"`
}

type frozenCandidate struct {
	Workflow       *frozenWorkflow
	StepCount      int
	FrameworkCount int
	TotalCost      int
	Score          float64
	Rationale      string
}

type frozenDesign struct {
	Chosen       *frozenWorkflow
	Alternatives []frozenCandidate
	Explored     int
	Strategy     string
}

type frozenSolution struct {
	Workflow    *frozenWorkflow
	Code        string
	LoC         int
	Language    string
	ChecksAdded int
}

type frozenReport struct {
	Query      string                      `json:"query"`
	Spec       nlq.Spec                    `json:"spec,omitempty"`
	Problem    *querymind.ProblemSpec      `json:"problem,omitempty"`
	Design     *frozenDesign               `json:"design,omitempty"`
	Solution   *frozenSolution             `json:"solution,omitempty"`
	Result     *workflow.Result            `json:"result,omitempty"`
	Promotions []registrycurator.Promotion `json:"promotions,omitempty"`
	Elapsed    time.Duration               `json:"elapsed,omitempty"`
}

func freezeWorkflow(w *workflow.Workflow) *frozenWorkflow {
	if w == nil {
		return nil
	}
	f := &frozenWorkflow{Name: w.Name, Query: w.Query, Outputs: w.Outputs, Checks: w.Checks}
	if w.Steps != nil {
		f.Steps = make([]frozenStep, 0, len(w.Steps))
	}
	for _, s := range w.Steps {
		var in map[string]workflow.Binding
		if s.Inputs != nil {
			in = make(map[string]workflow.Binding, len(s.Inputs))
			for _, b := range s.Inputs {
				in[b.Name] = b.Binding
			}
		}
		f.Steps = append(f.Steps, frozenStep{ID: s.ID, Capability: s.Capability, Inputs: in, Phase: s.Phase, Note: s.Note, Affinity: s.Affinity})
	}
	return f
}

func freezeReport(rep *arachnet.Report) *frozenReport {
	f := &frozenReport{Query: rep.Query, Spec: rep.Spec, Problem: rep.Problem, Result: rep.Result,
		Promotions: rep.Promotions, Elapsed: rep.Elapsed}
	if d := rep.Design; d != nil {
		f.Design = &frozenDesign{Chosen: freezeWorkflow(d.Chosen), Explored: d.Explored, Strategy: d.Strategy}
		if d.Alternatives != nil {
			f.Design.Alternatives = make([]frozenCandidate, 0, len(d.Alternatives))
		}
		for _, c := range d.Alternatives {
			f.Design.Alternatives = append(f.Design.Alternatives, frozenCandidate{Workflow: freezeWorkflow(c.Workflow),
				StepCount: c.StepCount, FrameworkCount: c.FrameworkCount, TotalCost: c.TotalCost, Score: c.Score, Rationale: c.Rationale})
		}
	}
	if s := rep.Solution; s != nil {
		f.Solution = &frozenSolution{Workflow: freezeWorkflow(s.Workflow), Code: s.Code(), LoC: s.LoC(), Language: s.Language, ChecksAdded: s.ChecksAdded}
	}
	return f
}

// requireFrozenJSON fails t unless rep renders exactly as its frozen
// copy does, through json.Marshal and through an encoder with HTML
// escaping off, which is how a "full" response is written.
func requireFrozenJSON(t *testing.T, label string, rep *arachnet.Report) {
	t.Helper()
	frozen := freezeReport(rep)
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := json.Marshal(frozen)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: json.Marshal of the Report\n%s\nmap-shaped steps render\n%s", label, got, want)
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return buf.Bytes()
	}
	if got, want := encode(rep), encode(frozen); !bytes.Equal(got, want) {
		t.Errorf("%s: the full response\n%s\nmap-shaped steps render\n%s", label, got, want)
	}
}

// TestFullReportJSONMatchesMapSteps requires the full Report of every
// eval.Corpus question, the failed ones' partial Reports included, to
// render byte for byte as it did while a step's Inputs were a map, and
// the same of a hand-built design whose steps have nil, empty and
// HTML-sensitive inputs.
func TestFullReportJSONMatchesMapSteps(t *testing.T) {
	sys, err := arachnet.New(arachnet.WithSmallWorld(7), arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	noInputs := 0
	for _, q := range eval.Corpus() {
		rep, _ := sys.Ask(ctx, q)
		if rep == nil {
			t.Fatalf("%.60q: no report", q)
		}
		requireFrozenJSON(t, q, rep)
		if rep.Design != nil {
			for _, s := range rep.Design.Chosen.Steps {
				if len(s.Inputs) == 0 {
					noInputs++
				}
			}
		}
	}
	t.Logf("%d chosen steps across the corpus bind no input", noInputs)

	wf := &workflow.Workflow{Name: "by-hand", Steps: []workflow.Step{
		{ID: "s1", Capability: "nil.inputs"},
		{ID: "s2", Capability: "empty.inputs", Inputs: workflow.Inputs{}},
		{ID: "s3", Capability: "many.inputs", Inputs: workflow.Inputs{
			{Name: "a<b>&c", Binding: workflow.Lit("x<y>&z\u2028")},
			{Name: "n", Binding: workflow.Binding{}},
			{Name: "r", Binding: workflow.Ref("s1", "out")},
			{Name: "t", Binding: workflow.Lit(time.Date(2025, 1, 2, 3, 4, 5, 6, time.UTC))},
			{Name: "v", Binding: workflow.Lit(map[string]any{"k": []float64{0.5, 1e-7}})},
		}},
	}}
	requireFrozenJSON(t, "a hand-built design", &arachnet.Report{
		Query:    "by hand",
		Design:   &workflowscout.Design{Chosen: wf, Alternatives: []workflowscout.Candidate{{Workflow: wf}}, Explored: 1},
		Solution: &solutionweaver.Solution{Workflow: wf},
	})
}
