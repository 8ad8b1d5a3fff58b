package registry

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func noop(c *Call) error { return nil }

func validCap(name string) Capability {
	return Capability{
		Name: name, Framework: "test", Description: "a test capability",
		Inputs:  []Port{{Name: "in", Type: TString}},
		Outputs: []Port{{Name: "out", Type: TImpact}},
		Tags:    []string{"impact"},
		Cost:    2,
		Impl:    noop,
	}
}

func TestRegisterAndGet(t *testing.T) {
	r := New()
	if err := r.Register(validCap("test.analyze")); err != nil {
		t.Fatal(err)
	}
	c, err := r.Get("test.analyze")
	if err != nil {
		t.Fatal(err)
	}
	if c.Framework != "test" || c.Cost != 2 {
		t.Errorf("got %+v", c)
	}
	if !r.Has("test.analyze") || r.Has("test.missing") {
		t.Error("Has() wrong")
	}
	if _, err := r.Get("test.missing"); err == nil {
		t.Error("missing capability must error")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	cases := map[string]Capability{
		"unqualified name": func() Capability { c := validCap("analyze"); return c }(),
		"empty name":       func() Capability { c := validCap(""); return c }(),
		"no framework":     func() Capability { c := validCap("t.x"); c.Framework = ""; return c }(),
		"no impl":          func() Capability { c := validCap("t.x"); c.Impl = nil; return c }(),
		"no description":   func() Capability { c := validCap("t.x"); c.Description = ""; return c }(),
		"no outputs":       func() Capability { c := validCap("t.x"); c.Outputs = nil; return c }(),
		"untyped port":     func() Capability { c := validCap("t.x"); c.Outputs = []Port{{Name: "o"}}; return c }(),
		"unnamed port":     func() Capability { c := validCap("t.x"); c.Inputs = []Port{{Type: TString}}; return c }(),
		"duplicate port": func() Capability {
			c := validCap("t.x")
			c.Inputs = []Port{{Name: "in", Type: TString}, {Name: "in", Type: TInt}}
			return c
		}(),
	}
	for label, c := range cases {
		if err := r.Register(c); err == nil {
			t.Errorf("%s: registration should fail", label)
		}
	}
}

func TestRegisterDuplicate(t *testing.T) {
	r := New()
	if err := r.Register(validCap("t.x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(validCap("t.x")); err == nil {
		t.Error("duplicate must fail")
	}
}

func TestDefaultCost(t *testing.T) {
	r := New()
	c := validCap("t.free")
	c.Cost = 0
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get("t.free")
	if got.Cost != 1 {
		t.Errorf("default cost = %d, want 1", got.Cost)
	}
}

func TestRegistryIsolation(t *testing.T) {
	// Mutating the caller's struct after registration must not affect
	// the registry.
	r := New()
	c := validCap("t.x")
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	c.Description = "mutated"
	got, _ := r.Get("t.x")
	if got.Description == "mutated" {
		t.Error("registry shares caller memory")
	}
}

func TestQueries(t *testing.T) {
	r := New()
	a := validCap("fw1.a")
	a.Framework = "fw1"
	a.Cost = 5
	b := validCap("fw2.b")
	b.Framework = "fw2"
	b.Cost = 1
	c := validCap("fw1.c")
	c.Framework = "fw1"
	c.Outputs = []Port{{Name: "out", Type: TCableList}}
	c.Tags = []string{"cable", "mapping"}
	// d ties a on cost and has two outputs of one type.
	d := validCap("fw2.d")
	d.Framework = "fw2"
	d.Cost = 5
	d.Outputs = []Port{{Name: "out", Type: TImpact}, {Name: "alt", Type: TImpact}}
	for _, cap := range []Capability{a, b, c, d} {
		if err := r.Register(cap); err != nil {
			t.Fatal(err)
		}
	}

	if got := r.ByFramework("fw1"); len(got) != 2 {
		t.Errorf("ByFramework(fw1) = %d caps", len(got))
	}
	if got := r.ByTag("mapping"); len(got) != 1 || got[0].Name != "fw1.c" {
		t.Errorf("ByTag(mapping) wrong")
	}
	prod := r.Producing(TImpact)
	if len(prod) != 3 {
		t.Fatalf("Producing(TImpact) = %d", len(prod))
	}
	// Sorted by cost: fw2.b (1) before fw1.a (5).
	if prod[0].Name != "fw2.b" {
		t.Errorf("Producing not cost-sorted: %s first", prod[0].Name)
	}
	// Equal costs fall back to name order; fw2.d is listed once.
	if prod[1].Name != "fw1.a" || prod[2].Name != "fw2.d" {
		t.Errorf("Producing(TImpact) = %s, %s, %s; want fw2.b, fw1.a, fw2.d", prod[0].Name, prod[1].Name, prod[2].Name)
	}
	// The result is the caller's own slice.
	prod[0] = nil
	if r.Producing(TImpact)[0] == nil {
		t.Error("Producing returned the registry's index")
	}
	if got := r.Producing(TBool); got != nil {
		t.Errorf("Producing(TBool) = %v, want nil", got)
	}
	fws := r.Frameworks()
	if len(fws) != 2 || fws[0] != "fw1" || fws[1] != "fw2" {
		t.Errorf("Frameworks = %v", fws)
	}
	if r.Size() != 4 {
		t.Errorf("Size = %d", r.Size())
	}
}

// producerNames lists Producing(t) by name.
func producerNames(r *Registry, t DataType) string {
	var names []string
	for _, c := range r.Producing(t) {
		names = append(names, c.Name)
	}
	return strings.Join(names, ",")
}

func TestSubset(t *testing.T) {
	r := New()
	for _, n := range []string{"t.a", "t.b", "t.c"} {
		if err := r.Register(validCap(n)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := r.Subset("t.a", "t.c")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 2 || !sub.Has("t.a") || sub.Has("t.b") {
		t.Error("subset wrong")
	}
	if got := producerNames(sub, TImpact); got != "t.a,t.c" {
		t.Errorf("subset Producing(TImpact) = %s, want t.a,t.c", got)
	}
	if _, err := r.Subset("t.zzz"); err == nil {
		t.Error("unknown subset member must error")
	}
	// Original unchanged.
	if r.Size() != 3 {
		t.Error("subset mutated original")
	}
}

func TestClone(t *testing.T) {
	r := New()
	if err := r.Register(validCap("t.a")); err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	if err := c.Register(validCap("t.b")); err != nil {
		t.Fatal(err)
	}
	if r.Has("t.b") {
		t.Error("clone shares map with original")
	}
	if got := producerNames(c, TImpact); got != "t.a,t.b" {
		t.Errorf("clone Producing(TImpact) = %s, want t.a,t.b", got)
	}
	if got := producerNames(r, TImpact); got != "t.a" {
		t.Errorf("source Producing(TImpact) = %s after the clone registered, want t.a", got)
	}
}

func TestMarshalJSON(t *testing.T) {
	r := New()
	if err := r.Register(validCap("t.a")); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	if !strings.Contains(s, `"t.a"`) || !strings.Contains(s, `"impact.report"`) {
		t.Errorf("marshal missing fields: %s", s)
	}
	if strings.Contains(s, "Impl") {
		t.Error("implementation leaked into JSON")
	}
	var decoded []Capability
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(decoded) != 1 || decoded[0].Name != "t.a" {
		t.Errorf("decoded %+v", decoded)
	}
}

func TestCallInput(t *testing.T) {
	c := &Call{In: map[string]any{"x": 42}}
	v, err := c.Input("x")
	if err != nil || v != 42 {
		t.Errorf("Input(x) = %v, %v", v, err)
	}
	if _, err := c.Input("y"); err == nil {
		t.Error("unbound input must error")
	}
}

func TestCapabilityHelpers(t *testing.T) {
	c := validCap("t.a")
	if !c.HasTag("impact") || c.HasTag("nope") {
		t.Error("HasTag wrong")
	}
	if !c.Produces(TImpact) || c.Produces(TCableID) {
		t.Error("Produces wrong")
	}
	if p, ok := c.InputPort("in"); !ok || p.Type != TString {
		t.Error("InputPort wrong")
	}
	if _, ok := c.InputPort("zzz"); ok {
		t.Error("InputPort miss wrong")
	}
	if p, ok := c.OutputPort("out"); !ok || p.Type != TImpact {
		t.Error("OutputPort wrong")
	}
	if _, ok := c.OutputPort("zzz"); ok {
		t.Error("OutputPort miss wrong")
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegister should panic on invalid capability")
		}
	}()
	New().MustRegister(Capability{Name: "bad"})
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	// Planners read (Get, All, Producing, Size) while the curator
	// registers composites; under -race this verifies the RWMutex.
	r := New()
	r.MustRegister(validCap("seed.cap"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				c := validCap(fmt.Sprintf("w%d.cap%d", w, i))
				if err := r.Register(c); err != nil {
					t.Errorf("register: %v", err)
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := r.Get("seed.cap"); err != nil {
					t.Errorf("get: %v", err)
				}
				_ = r.All()
				_ = r.Producing(TImpact)
				_ = r.Size()
				_ = r.Clone()
			}
		}()
	}
	wg.Wait()
	if got := r.Size(); got != 1+4*25 {
		t.Errorf("size = %d after concurrent registration", got)
	}
}
