package registry

import "testing"

// chainRegistry registers the primitives t.a (in → out, f) and t.b
// (in, optional k → out).
func chainRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New()
	a := validCap("t.a")
	a.Outputs = []Port{{Name: "out", Type: TImpact}, {Name: "f", Type: TFloat}}
	r.MustRegister(a)
	b := validCap("t.b")
	b.Inputs = []Port{{Name: "in", Type: TImpact}, {Name: "k", Type: TFloat, Optional: true}}
	b.Outputs = []Port{{Name: "out", Type: TStringList}}
	r.MustRegister(b)
	return r
}

// validComposite is composite.a_to_b_2 over chainRegistry: t.a's
// inputs, t.b's outputs, and every input of t.b bound to t.a.
func validComposite(r *Registry) Capability {
	a, _ := r.Get("t.a")
	b, _ := r.Get("t.b")
	return Capability{
		Name: "composite.a_to_b_2", Framework: "composite", Description: "a then b",
		Inputs: a.Inputs, Outputs: b.Outputs, Composite: true,
		Chain: []ChainStep{
			{Capability: "t.a"},
			{Capability: "t.b", In: map[string]ChainRef{"in": {Step: 0, Port: "out"}, "k": {Step: 0, Port: "f"}}},
		},
	}
}

// TestRegisterShapes pins the two shapes Register accepts, a primitive
// (Impl, no Chain, not Composite) and a composite (Composite, a Chain of
// registered primitives wired as Compile needs, no Impl, Pure or
// Reads), and that it rejects every other.
func TestRegisterShapes(t *testing.T) {
	r := chainRegistry(t)
	if err := r.Register(validComposite(r)); err != nil {
		t.Fatalf("a well-formed composite: %v", err)
	}

	bad := map[string]func(c *Capability){
		"composite with an Impl":    func(c *Capability) { c.Impl = noop },
		"composite that is Pure":    func(c *Capability) { c.Pure = true },
		"composite with Reads":      func(c *Capability) { c.Reads = []string{"world"} },
		"chain without Composite":   func(c *Capability) { c.Composite, c.Impl = false, noop },
		"Composite without a chain": func(c *Capability) { c.Chain = nil },
		"unknown chain capability":  func(c *Capability) { c.Chain[1].Capability = "t.zzz" },
		"chain naming a composite":  func(c *Capability) { c.Chain[0].Capability = "composite.a_to_b_2" },
		"head bound by the chain": func(c *Capability) {
			c.Chain[0].In = map[string]ChainRef{"in": {Step: 0, Port: "out"}}
		},
		"later step leaves an optional input": func(c *Capability) { delete(c.Chain[1].In, "k") },
		"ref to a later step":                 func(c *Capability) { c.Chain[1].In["in"] = ChainRef{Step: 1, Port: "out"} },
		"ref to a missing port":               func(c *Capability) { c.Chain[1].In["in"] = ChainRef{Step: 0, Port: "nope"} },
		"ref of the wrong type":               func(c *Capability) { c.Chain[1].In["k"] = ChainRef{Step: 0, Port: "out"} },
		"inputs other than the head's": func(c *Capability) {
			c.Inputs = []Port{{Name: "in", Type: TString, Optional: true}}
		},
		"outputs other than the tail's": func(c *Capability) { c.Outputs = []Port{{Name: "out", Type: TImpact}} },
	}
	for label, mutate := range bad {
		c := validComposite(r)
		c.Name = "composite.bad_2"
		mutate(&c)
		if err := r.Register(c); err == nil {
			t.Errorf("%s: registration should fail", label)
		}
	}
	primitive := validCap("t.p")
	primitive.Chain = []ChainStep{{Capability: "t.a"}}
	if err := r.Register(primitive); err == nil {
		t.Error("a primitive with a chain: registration should fail")
	}
}
