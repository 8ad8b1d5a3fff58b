package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"arachnet/internal/fleet"
	"arachnet/internal/netsim"
)

// refusingTransport counts Sends and fails each one.
type refusingTransport struct{ sends atomic.Uint64 }

func (t *refusingTransport) Send(context.Context, int, fleet.Request) (fleet.Response, error) {
	t.sends.Add(1)
	return fleet.Response{}, errors.New("no worker behind this transport")
}

func (t *refusingTransport) Close() error { return nil }

// TestFleetDeclinesScenarioReaders: a fleet worker holds the world and
// no scenario, so no builtin scatter spec may take a capability that
// reads FacetScenario — its worker would answer from whatever scenario
// it holds, with no error. With the builtin specs installed, the fleet
// declines every such capability, offered the inputs the CS3 and CS4
// plans bind it to (none if neither plan uses it), and sends nothing;
// as a control, it takes nautilus.extract_ips.
func TestFleetDeclinesScenarioReaders(t *testing.T) {
	env := testEnv(t, true)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]map[string]any{}
	for _, q := range []string{queryCS3, queryCS4} {
		rep, err := sys.Ask(context.Background(), q, AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range rep.Solution.Workflow.Steps {
			in := map[string]any{}
			for _, b := range st.Inputs {
				if b.IsRef() {
					in[b.Name] = rep.Result.Values[b.Ref]
				} else {
					in[b.Name] = b.Literal
				}
			}
			inputs[st.Capability] = in
		}
	}

	part, err := netsim.PartitionWorld(env.World, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := &refusingTransport{}
	f := fleet.NewOver(part, tr)
	defer f.Close()
	installScatterSpecs(f)
	var readers []string
	for _, capb := range BuiltinRegistry().All() {
		if !slices.Contains(capb.Reads, FacetScenario) {
			continue
		}
		readers = append(readers, capb.Name)
		in := inputs[capb.Name]
		if in == nil {
			in = map[string]any{}
		}
		if _, handled, err := f.DispatchStep(context.Background(), capb, in, env, "fp"); handled || err != nil {
			t.Errorf("%s reads the scenario, yet the fleet took it (err: %v)", capb.Name, err)
		}
	}
	if len(readers) == 0 {
		t.Fatal("no builtin capability reads the scenario")
	}
	if n := tr.sends.Load(); n != 0 {
		t.Errorf("scenario readers %v sent %d requests to workers", readers, n)
	}

	capb, err := BuiltinRegistry().Get("nautilus.extract_ips")
	if err != nil {
		t.Fatal(err)
	}
	if _, handled, _ := f.DispatchStep(context.Background(), capb, map[string]any{"links": []netsim.LinkID{0, 1, 2}}, env, "fp"); !handled {
		t.Error("the control nautilus.extract_ips was declined")
	}
}
