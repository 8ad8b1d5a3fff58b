package workflow

// Compiled-plan contract: fingerprints resolve to a fixed key format,
// separate environments that share one plan, and a fully cached
// replay stays within a small constant allocation budget.

import (
	"context"
	"encoding/hex"
	"strconv"
	"sync/atomic"
	"testing"

	"arachnet/internal/registry"
)

// TestFingerprintGolden pins the step-fingerprint key format. The local
// step cache, the fleet's worker caches and cache snapshots all key on
// these digests, so a change to the preimage layout would turn every
// saved snapshot cold and make workers miss; the expected hex is the
// digest the format has always produced. Non-memoizable steps (an
// impure source and its downstream) resolve to "".
func TestFingerprintGolden(t *testing.T) {
	reg := memoRegistry(t, map[string]*atomic.Int64{})
	keyer := func(capb *registry.Capability) string {
		if capb.Name == "memo.double" {
			return "facet:double"
		}
		return "" // fall back to the engine's environment fingerprint
	}
	cases := []struct {
		label string
		wf    *Workflow
		want  []string
	}{
		{"pure chain", memoWorkflow(), []string{
			"8a525d810c259f90071a211b1fbcaa359224231469c2cb1e2b9e5f8f35137987",
			"5e86e9eacbfbefd7dcf91d9989460c101ba74a4d5f00eaac9db9a071be0357b5",
		}},
		{"impure upstream", &Workflow{
			Name: "impure-chain",
			Steps: []Step{
				{ID: "i", Capability: "memo.impure"},
				{ID: "d", Capability: "memo.double", Inputs: map[string]Binding{"n": Ref("i", "n")}},
			},
			Outputs: map[string]string{"out": "d.n"},
		}, []string{"", ""}},
	}
	for _, tc := range cases {
		eng := NewEngine(reg, nil, WithCache(newMapCache(), "env-parity"), WithEnvKeyer(keyer))
		cp, err := Compile(tc.wf, reg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		got := cp.fingerprintsFor(eng)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d fingerprints, want %d", tc.label, len(got), len(tc.want))
		}
		for i, want := range tc.want {
			if h := hex.EncodeToString([]byte(got[i])); h != want {
				t.Errorf("%s: step %d fingerprint %s, want %s", tc.label, i, h, want)
			}
		}
	}
}

func TestCompiledEnvFingerprintSeparation(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	cache := newMapCache()
	cp, err := Compile(memoWorkflow(), reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engA := NewEngine(reg, nil, WithCache(cache, "envA"))
	engB := NewEngine(reg, nil, WithCache(cache, "envB"))

	if _, err := engA.RunCompiled(ctx, cp, nil); err != nil {
		t.Fatal(err)
	}
	// Different environment, shared plan and cache: must execute again,
	// not hit envA's entries.
	if _, err := engB.RunCompiled(ctx, cp, nil); err != nil {
		t.Fatal(err)
	}
	if n := calls["memo.double"].Load(); n != 2 {
		t.Errorf("memo.double executed %d times, want 2 (env separation)", n)
	}
	// Back to envA: the memoized vector was displaced by envB, but the
	// recomputed digests must still hit envA's cache entries.
	res, err := engA.RunCompiled(ctx, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Steps {
		if !st.Cached {
			t.Errorf("envA replay step %s not cached after memo displacement", st.ID)
		}
	}
	if n := calls["memo.double"].Load(); n != 2 {
		t.Errorf("memo.double executed %d times after envA replay, want still 2", n)
	}
}

// TestCompiledWarmReplayAllocs pins the allocation budget of a fully
// cached compiled replay. From a plan's third fully cached run on, a
// replay returns the plan's memoized Result, and everything else
// (scratch, fingerprints) is pooled or memoized, so it allocates
// nothing; the ceiling of one leaves room for jitter only.
func TestCompiledWarmReplayAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	eng := NewEngine(reg, nil, WithCache(newMapCache(), "envA"), WithParallelism(4))
	cp, err := Compile(memoWorkflow(), reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.RunCompiled(ctx, cp, nil); err != nil {
		t.Fatal(err) // populates the cache; replays below are fully warm
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.RunCompiled(ctx, cp, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm compiled replay: %.1f allocs/op", avg)
	const ceiling = 1
	if avg > ceiling {
		t.Errorf("warm compiled replay allocates %.1f/op, budget %d", avg, ceiling)
	}
}

// chainWorkflow is n steps of the test registry, each reading the one
// before: test.source, n-2 test.doubles and test.render.
func chainWorkflow(n int) *Workflow {
	w := &Workflow{Name: "chain", Steps: []Step{{ID: "s0", Capability: "test.source", Inputs: map[string]Binding{"value": Lit(21)}}}}
	for i := 1; i < n; i++ {
		capb, port := "test.double", "n"
		if i == n-1 {
			capb, port = "test.render", "text"
		}
		w.Steps = append(w.Steps, Step{ID: "s" + strconv.Itoa(i), Capability: capb,
			Inputs: map[string]Binding{"n": Ref("s"+strconv.Itoa(i-1), "n")}})
		w.Outputs = map[string]string{"out": "s" + strconv.Itoa(i) + "." + port}
	}
	return w
}

// TestValidateCompileAllocs pins what Validate and Compile allocate per
// plan, not per step: on a valid 3-step and a valid 9-step workflow,
// Validate costs at most 5 allocations, and neither grows by more than
// its step index does. Up to 8 steps that index is a map on Validate's
// stack, so Validate allocates nothing; the 9th step moves it into a
// heap directory, table and group array, 3 allocations. Compile keeps
// the index, so its map is always on the heap: 2 allocations up to 8
// entries, 4 from 9.
func TestValidateCompileAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	reg := buildTestRegistry(t)
	var validate, compile [2]float64
	for i, n := range []int{3, 9} {
		w := chainWorkflow(n)
		if err := w.Validate(reg); err != nil {
			t.Fatalf("%d steps: %v", n, err)
		}
		validate[i] = testing.AllocsPerRun(100, func() {
			if err := w.Validate(reg); err != nil {
				t.Fatal(err)
			}
		})
		compile[i] = testing.AllocsPerRun(100, func() {
			if _, err := Compile(w, reg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d steps: Validate %.0f allocs, Compile %.0f", n, validate[i], compile[i])
		if validate[i] > 5 {
			t.Errorf("Validate on %d steps allocates %.0f, budget 5", n, validate[i])
		}
	}
	if d := validate[1] - validate[0]; d > 3 {
		t.Errorf("Validate allocates %.0f more on 9 steps than on 3, budget 3", d)
	}
	if d := compile[1] - compile[0]; d > 3 {
		t.Errorf("Compile allocates %.0f more on 9 steps than on 3, budget 3", d)
	}
}
