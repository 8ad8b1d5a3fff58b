package workflow

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"arachnet/internal/registry"
)

// compositeRegistry is memoRegistry plus composite.double_to_add_2:
// memo.double, then memo.add of the double to itself.
func compositeRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := memoRegistry(t, map[string]*atomic.Int64{})
	double, _ := reg.Get("memo.double")
	add, _ := reg.Get("memo.add")
	reg.MustRegister(registry.Capability{
		Name: "composite.double_to_add_2", Framework: "composite", Description: "double, then add to itself",
		Inputs: double.Inputs, Outputs: add.Outputs, Composite: true,
		Chain: []registry.ChainStep{
			{Capability: "memo.double"},
			{Capability: "memo.add", In: map[string]registry.ChainRef{"a": {Step: 0, Port: "n"}, "b": {Step: 0, Port: "n"}}},
		},
	})
	return reg
}

// offers records the capabilities an engine offers its dispatcher and
// declines every one.
type offers struct {
	mu   sync.Mutex
	caps []string
}

func (o *offers) DispatchStep(_ context.Context, capb *registry.Capability, _ map[string]any, _ any, _ string) (map[string]any, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.caps = append(o.caps, capb.Name)
	return nil, false, nil
}

// TestCompileExpandsComposites requires a step naming a composite to
// compile like the workflow with the chain written out by hand: the
// head takes the step's bindings, the tail keeps its ID, the other
// steps are "<id>_<k>" with the step's phase and affinity, and the two
// plans produce the same values under the same step fingerprints.
func TestCompileExpandsComposites(t *testing.T) {
	reg := compositeRegistry(t)
	check := []QualityCheck{{Name: "positive", Kind: CheckSanity, Ref: "c.n",
		Assert: func(v any) (bool, string) { return v.(int) > 0, "" }}}
	named := &Workflow{
		Name: "named",
		Steps: []Step{
			{ID: "c", Capability: "composite.double_to_add_2", Inputs: map[string]Binding{"n": Lit(21)}, Phase: "p"},
			{ID: "x", Capability: "memo.double", Inputs: map[string]Binding{"n": Ref("c", "n")}},
		},
		Outputs: map[string]string{"out": "x.n", "mid": "c.n"},
		Checks:  check,
	}
	byHand := &Workflow{
		Name: "by-hand",
		Steps: []Step{
			{ID: "c_1", Capability: "memo.double", Inputs: map[string]Binding{"n": Lit(21)}, Phase: "p"},
			{ID: "c", Capability: "memo.add", Inputs: map[string]Binding{"a": Ref("c_1", "n"), "b": Ref("c_1", "n")}, Phase: "p"},
			{ID: "x", Capability: "memo.double", Inputs: map[string]Binding{"n": Ref("c", "n")}},
		},
		Outputs: map[string]string{"out": "x.n", "mid": "c.n"},
		Checks:  check,
	}
	run := func(wf *Workflow) (*Result, []string) {
		cp, err := Compile(wf, reg)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(reg, nil, WithCache(newMapCache(), "env"))
		res, err := eng.RunCompiled(context.Background(), cp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, cp.fingerprintsFor(eng)
	}
	got, gotFPs := run(named)
	want, wantFPs := run(byHand)
	if k, wk := slices.Sorted(maps.Keys(got.Values)), slices.Sorted(maps.Keys(want.Values)); !slices.Equal(k, wk) {
		t.Errorf("values %v, want %v", k, wk)
	}
	if !maps.Equal(got.Outputs, want.Outputs) || got.Outputs["out"] != 168 {
		t.Errorf("outputs %v, want %v", got.Outputs, want.Outputs)
	}
	if !slices.Equal(gotFPs, wantFPs) {
		t.Error("the expanded plan's step fingerprints differ from the hand-written chain's")
	}
	var ids []string
	for _, st := range got.Steps {
		ids = append(ids, st.ID+" "+st.Capability)
	}
	if want := []string{"c_1 memo.double", "c memo.add", "x memo.double"}; !slices.Equal(ids, want) {
		t.Errorf("steps %v, want %v", ids, want)
	}
	if len(got.Checks) != 1 || !got.Checks[0].Passed {
		t.Errorf("checks %+v", got.Checks)
	}

	// The chain inherits the step's affinity: pinned to the coordinator,
	// none of its steps is offered to a dispatcher.
	named.Steps[0].Affinity = AffinityCoordinator
	d := &offers{}
	if _, err := NewEngine(reg, nil, WithDispatcher(d)).Run(context.Background(), named); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.caps, []string{"memo.double"}) {
		t.Errorf("offered %v, want only x's memo.double", d.caps)
	}

	// An inner step ID that is already taken fails to compile.
	clash := &Workflow{Name: "clash", Steps: []Step{
		{ID: "c_1", Capability: "memo.double", Inputs: map[string]Binding{"n": Lit(1)}},
		{ID: "c", Capability: "composite.double_to_add_2", Inputs: map[string]Binding{"n": Lit(2)}},
	}}
	if _, err := Compile(clash, reg); !errors.Is(err, ErrDuplicateStep) {
		t.Errorf("compile = %v, want %v", err, ErrDuplicateStep)
	}
}
