package workflow

// WithEnvKeyer contract: per-capability environment keys scope cache
// invalidation, so changing one capability's key re-runs only its
// steps and their downstreams while everything else replays from
// cache — the dirty-set seam standing queries build on.

import (
	"context"
	"sync/atomic"
	"testing"

	"arachnet/internal/registry"
)

// keyerWorkflow is a two-branch DAG joined by a sink:
//
//	d (memo.double, "scenario" key) ─┐
//	                                 s (memo.add, "world" key)
//	a (memo.add, "world" key) ───────┘
//
// The keyer maps capability name → env key, standing in for the
// facet-scoped fingerprints core derives from Capability.Reads.
func keyerWorkflow() *Workflow {
	return &Workflow{
		Name: "keyer",
		Steps: []Step{
			{ID: "d", Capability: "memo.double", Inputs: Inputs{{"n", Lit(21)}}},
			{ID: "a", Capability: "memo.add", Inputs: Inputs{
				{"a", Lit(1)},
				{"b", Lit(2)},
			}},
			{ID: "s", Capability: "memo.add", Inputs: Inputs{
				{"a", Ref("d", "n")},
				{"b", Ref("a", "n")},
			}},
		},
		Outputs: map[string]string{"out": "s.n"},
	}
}

func cachedByID(r *Result) map[string]bool {
	out := map[string]bool{}
	for _, st := range r.Steps {
		out[st.ID] = st.Cached
	}
	return out
}

func TestEnvKeyerScopesInvalidation(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	cache := newMapCache()

	run := func(scenarioKey string) *Result {
		t.Helper()
		eng := NewEngine(reg, nil,
			WithCache(cache, "envA"),
			WithEnvKeyer(func(c *registry.Capability) string {
				if c.Name == "memo.double" {
					return scenarioKey
				}
				return "world"
			}))
		r, err := eng.Run(context.Background(), keyerWorkflow())
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Outputs["out"]; got != 45 {
			t.Fatalf("output = %v, want 45", got)
		}
		return r
	}

	// Cold, then fully warm under the same keys.
	run("scenario-epoch-1")
	r2 := run("scenario-epoch-1")
	for id, cached := range cachedByID(r2) {
		if !cached {
			t.Errorf("warm run: step %s not cached", id)
		}
	}

	// Bump only the scenario key: d is dirty, s is dirty through its
	// ref on d, a replays from cache.
	r3 := run("scenario-epoch-2")
	want := map[string]bool{"d": false, "a": true, "s": false}
	for id, cached := range cachedByID(r3) {
		if cached != want[id] {
			t.Errorf("after key bump: step %s cached=%v, want %v", id, cached, want[id])
		}
	}
	if n := calls["memo.double"].Load(); n != 2 {
		t.Errorf("memo.double executed %d times, want 2", n)
	}
	if n := calls["memo.add"].Load(); n != 3 { // a once, s twice
		t.Errorf("memo.add executed %d times, want 3", n)
	}
}

// TestEnvKeyerEmptyFallsBack: a keyer returning "" leaves the engine's
// WithCache fingerprint in effect for that capability.
func TestEnvKeyerEmptyFallsBack(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	cache := newMapCache()

	run := func(envFP string) {
		t.Helper()
		eng := NewEngine(reg, nil,
			WithCache(cache, envFP),
			WithEnvKeyer(func(*registry.Capability) string { return "" }))
		if _, err := eng.Run(context.Background(), memoWorkflow()); err != nil {
			t.Fatal(err)
		}
	}
	run("envA")
	run("envA") // warm: same engine fingerprint
	if n := calls["memo.double"].Load(); n != 1 {
		t.Errorf("memo.double executed %d times under identical envFP, want 1", n)
	}
	run("envB") // different engine fingerprint: everything re-runs
	if n := calls["memo.double"].Load(); n != 2 {
		t.Errorf("memo.double executed %d times across envFPs, want 2", n)
	}
}
