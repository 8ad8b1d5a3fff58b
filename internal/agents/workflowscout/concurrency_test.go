package workflowscout_test

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/core"
	"arachnet/internal/netsim"
)

// caseStudies are the paper's four case-study questions.
var caseStudies = []string{
	"Identify the impact at a country level due to SeaMeWe-5 cable failure",
	"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
	"Analyze the cascading effects of submarine cable failures between Europe and Asia",
	"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
}

// TestConcurrentDesignsMatchSequential designs CS1–CS4 on the builtin
// registry from several goroutines at once. Each Design plans in a
// pooled designer whose scratch holds the steps' inputs, so a
// workflow that kept a reference into that scratch would change under
// a later Design. Every concurrent design must equal the sequential
// one, steps, inputs and outputs of every candidate included, both
// when it returns and after all the others have run; and the
// sequential designs must not have changed either.
func TestConcurrentDesignsMatchSequential(t *testing.T) {
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
	reg := core.BuiltinRegistry()
	scout := workflowscout.New()
	var problems []*querymind.ProblemSpec
	var want []*workflowscout.Design
	var wantJSON [][]byte
	for _, q := range caseStudies {
		rep, err := sys.Ask(context.Background(), q, core.AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		d, err := scout.Design(rep.Problem, reg)
		if err != nil {
			t.Fatal(err)
		}
		problems, want, wantJSON = append(problems, rep.Problem), append(want, d), append(wantJSON, designJSON(t, d))
	}

	const goroutines, rounds = 4, 25
	got := make([][]*workflowscout.Design, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				i := (g + r) % len(problems)
				d, err := scout.Design(problems[i], reg)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(d, want[i]) {
					t.Errorf("CS%d: a concurrent design differs:\n%s\nsequential:\n%s", i+1, d.Chosen.Describe(), want[i].Chosen.Describe())
					return
				}
				got[g] = append(got[g], d)
			}
		}()
	}
	wg.Wait()
	for g, ds := range got {
		for r, d := range ds {
			i := (g + r) % len(problems)
			if j := designJSON(t, d); string(j) != string(wantJSON[i]) {
				t.Errorf("CS%d: goroutine %d's design changed after it returned:\n%s\nwant\n%s", i+1, g, j, wantJSON[i])
			}
		}
	}
	for i, d := range want {
		if j := designJSON(t, d); string(j) != string(wantJSON[i]) {
			t.Errorf("CS%d: the sequential design changed under later designs:\n%s\nwant\n%s", i+1, j, wantJSON[i])
		}
	}
}

// designJSON renders every candidate of d, its steps, inputs and
// outputs.
func designJSON(t *testing.T, d *workflowscout.Design) []byte {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
