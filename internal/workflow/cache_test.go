package workflow

// Step-memoization contract of the engine: pure steps with
// deterministic fingerprints are served from the Cache across runs,
// impure steps (and everything downstream of them) always execute,
// and fingerprints separate distinct literals and distinct
// environments so a hit is never wrong.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"arachnet/internal/registry"
)

// mapCache is a test Cache with call counters.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]map[string]any
	gets atomic.Int64
	hits atomic.Int64
	puts atomic.Int64
}

func newMapCache() *mapCache { return &mapCache{m: map[string]map[string]any{}} }

func (c *mapCache) Get(key string) (map[string]any, bool) {
	c.gets.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

func (c *mapCache) Put(key string, out map[string]any) {
	c.puts.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = out
}

// memoRegistry registers a pure doubler, a pure adder, and an impure
// counter source, each counting invocations.
func memoRegistry(t testing.TB, calls map[string]*atomic.Int64) *registry.Registry {
	t.Helper()
	r := registry.New()
	count := func(name string) *atomic.Int64 {
		c := &atomic.Int64{}
		calls[name] = c
		return c
	}
	dc := count("memo.double")
	r.MustRegister(registry.Capability{
		Name: "memo.double", Framework: "memo", Description: "double a number",
		Inputs:  []registry.Port{{Name: "n", Type: registry.TInt}},
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Pure:    true,
		Impl: func(c *registry.Call) error {
			dc.Add(1)
			v, _ := c.Input("n")
			c.Out["n"] = v.(int) * 2
			return nil
		},
	})
	ac := count("memo.add")
	r.MustRegister(registry.Capability{
		Name: "memo.add", Framework: "memo", Description: "add two numbers",
		Inputs: []registry.Port{
			{Name: "a", Type: registry.TInt},
			{Name: "b", Type: registry.TInt},
		},
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Pure:    true,
		Impl: func(c *registry.Call) error {
			ac.Add(1)
			a, _ := c.Input("a")
			b, _ := c.Input("b")
			c.Out["n"] = a.(int) + b.(int)
			return nil
		},
	})
	ic := count("memo.impure")
	r.MustRegister(registry.Capability{
		Name: "memo.impure", Framework: "memo", Description: "an impure source",
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		// Pure deliberately false.
		Impl: func(c *registry.Call) error {
			ic.Add(1)
			c.Out["n"] = 7
			return nil
		},
	})
	return r
}

func memoWorkflow() *Workflow {
	return &Workflow{
		Name: "memo",
		Steps: []Step{
			{ID: "d", Capability: "memo.double", Inputs: Inputs{{"n", Lit(21)}}},
			{ID: "s", Capability: "memo.add", Inputs: Inputs{
				{"a", Ref("d", "n")},
				{"b", Lit(1)},
			}},
		},
		Outputs: map[string]string{"out": "s.n"},
	}
}

func TestPureStepsMemoizedAcrossRuns(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	cache := newMapCache()
	eng := NewEngine(reg, nil, WithCache(cache, "envA"))

	r1, err := eng.Run(context.Background(), memoWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(context.Background(), memoWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Outputs["out"]; got != 43 {
		t.Fatalf("first run output = %v, want 43", got)
	}
	if got := r2.Outputs["out"]; got != 43 {
		t.Fatalf("second run output = %v, want 43", got)
	}
	for _, name := range []string{"memo.double", "memo.add"} {
		if n := calls[name].Load(); n != 1 {
			t.Errorf("%s executed %d times, want 1 (memoized)", name, n)
		}
	}
	for _, st := range r1.Steps {
		if st.Cached {
			t.Errorf("first run step %s unexpectedly cached", st.ID)
		}
	}
	for _, st := range r2.Steps {
		if !st.Cached {
			t.Errorf("second run step %s not served from cache", st.ID)
		}
	}
	if cache.puts.Load() != 2 {
		t.Errorf("cache.Put called %d times, want 2", cache.puts.Load())
	}
}

func TestImpureStepAndDownstreamNeverMemoized(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	cache := newMapCache()
	eng := NewEngine(reg, nil, WithCache(cache, "envA"))

	wf := &Workflow{
		Name: "impure-chain",
		Steps: []Step{
			{ID: "i", Capability: "memo.impure"},
			// Pure, but downstream of an impure producer: its ref input
			// has no deterministic fingerprint, so it must execute.
			{ID: "d", Capability: "memo.double", Inputs: Inputs{{"n", Ref("i", "n")}}},
		},
		Outputs: map[string]string{"out": "d.n"},
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), wf); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls["memo.impure"].Load(); n != 2 {
		t.Errorf("impure step executed %d times, want 2", n)
	}
	if n := calls["memo.double"].Load(); n != 2 {
		t.Errorf("pure step downstream of impure executed %d times, want 2", n)
	}
	if cache.puts.Load() != 0 {
		t.Errorf("cache.Put called %d times, want 0", cache.puts.Load())
	}
}

func TestFingerprintSeparatesLiteralsAndEnvironments(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	cache := newMapCache()

	run := func(envFP string, lit int) *Result {
		t.Helper()
		eng := NewEngine(reg, nil, WithCache(cache, envFP))
		wf := &Workflow{
			Name: "lit",
			Steps: []Step{
				{ID: "d", Capability: "memo.double", Inputs: Inputs{{"n", Lit(lit)}}},
			},
			Outputs: map[string]string{"out": "d.n"},
		}
		res, err := eng.Run(context.Background(), wf)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if got := run("envA", 3).Outputs["out"]; got != 6 {
		t.Fatalf("got %v, want 6", got)
	}
	// Different literal: must execute, not hit the lit=3 entry.
	if got := run("envA", 5).Outputs["out"]; got != 10 {
		t.Fatalf("got %v, want 10", got)
	}
	// Different environment, same literal: must execute again.
	run("envB", 3)
	if n := calls["memo.double"].Load(); n != 3 {
		t.Errorf("executed %d times, want 3 (no false sharing)", n)
	}
	// Same env, same literal: now a hit.
	run("envA", 3)
	if n := calls["memo.double"].Load(); n != 3 {
		t.Errorf("executed %d times after repeat, want still 3", n)
	}
}

func TestUncanonicalizableLiteralDisablesMemoization(t *testing.T) {
	r := registry.New()
	var execs atomic.Int64
	r.MustRegister(registry.Capability{
		Name: "memo.sink", Framework: "memo", Description: "consumes an opaque value",
		Inputs:  []registry.Port{{Name: "f", Type: registry.DataType("opaque.fn")}},
		Outputs: []registry.Port{{Name: "ok", Type: registry.TBool}},
		Pure:    true,
		Impl: func(c *registry.Call) error {
			execs.Add(1)
			c.Out["ok"] = true
			return nil
		},
	})
	cache := newMapCache()
	eng := NewEngine(r, nil, WithCache(cache, "envA"))
	wf := &Workflow{
		Name: "opaque",
		Steps: []Step{
			// A function literal has no canonical encoding.
			{ID: "s", Capability: "memo.sink", Inputs: Inputs{{"f", Lit(func() {})}}},
		},
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), wf); err != nil {
			t.Fatal(err)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("executed %d times, want 2 (not memoizable)", n)
	}
	if cache.puts.Load() != 0 {
		t.Errorf("cache.Put called %d times, want 0", cache.puts.Load())
	}
}

func TestCachedStepsNotifyObservers(t *testing.T) {
	calls := map[string]*atomic.Int64{}
	reg := memoRegistry(t, calls)
	cache := newMapCache()
	rec := &recordingObserver{}
	eng := NewEngine(reg, nil, WithCache(cache, "envA"))

	if _, err := eng.RunCompiled(context.Background(), mustCompile(t, memoWorkflow(), reg), rec); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunCompiled(context.Background(), mustCompile(t, memoWorkflow(), reg), rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.started) != 4 || len(rec.finished) != 4 {
		t.Fatalf("observer saw %d starts / %d finishes, want 4 / 4",
			len(rec.started), len(rec.finished))
	}
	cached := 0
	for _, st := range rec.finished {
		if st.Cached {
			cached++
		}
	}
	if cached != 2 {
		t.Errorf("observer saw %d cached finishes, want 2", cached)
	}
}
