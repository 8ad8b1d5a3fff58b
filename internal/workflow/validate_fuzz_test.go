package workflow

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"arachnet/internal/registry"
)

// refValidate is Validate as it was when it looked refs up in a table
// of every produced "stepID.port" string: the reference FuzzValidate
// holds the index-based Validate to.
func refValidate(w *Workflow, reg *registry.Registry) error {
	if len(w.Steps) == 0 {
		return ErrEmptyWorkflow
	}
	produced := map[string]registry.DataType{} // "step.port" → type
	seen := map[string]bool{}
	for i, s := range w.Steps {
		if s.ID == "" {
			return fmt.Errorf("workflow: step %d has empty id", i)
		}
		// Refs are "stepID.port"; a dot inside the ID would make them
		// ambiguous and corrupt the engine's dependency graph.
		if strings.Contains(s.ID, ".") {
			return fmt.Errorf("workflow: step id %q must not contain '.'", s.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("%w: %q", ErrDuplicateStep, s.ID)
		}
		seen[s.ID] = true
		capb, err := reg.Get(s.Capability)
		if err != nil {
			return fmt.Errorf("%w: step %q wants %q", ErrUnknownCap, s.ID, s.Capability)
		}
		for _, in := range capb.Inputs {
			b, bound := s.Inputs.Get(in.Name)
			if !bound {
				if in.Optional {
					continue
				}
				return fmt.Errorf("%w: step %q input %q", ErrUnboundInput, s.ID, in.Name)
			}
			if err := b.Validate(); err != nil {
				return fmt.Errorf("step %q input %q: %w", s.ID, in.Name, err)
			}
			if b.IsRef() {
				srcType, ok := produced[b.Ref]
				if !ok {
					return fmt.Errorf("%w: step %q input %q references %q", ErrBadRef, s.ID, in.Name, b.Ref)
				}
				if srcType != in.Type {
					return fmt.Errorf("%w: step %q input %q wants %s, ref %q provides %s",
						ErrTypeMismatch, s.ID, in.Name, in.Type, b.Ref, srcType)
				}
			}
		}
		// Unknown extra bindings are an authoring bug.
		for _, in := range s.Inputs {
			if _, ok := capb.InputPort(in.Name); !ok {
				return fmt.Errorf("workflow: step %q binds unknown input %q of %q", s.ID, in.Name, s.Capability)
			}
		}
		for _, out := range capb.Outputs {
			produced[s.ID+"."+out.Name] = out.Type
		}
	}
	for name, ref := range w.Outputs {
		if _, ok := produced[ref]; !ok {
			return fmt.Errorf("%w: workflow output %q references %q", ErrBadRef, name, ref)
		}
	}
	for _, chk := range w.Checks {
		if _, ok := produced[chk.Ref]; !ok {
			return fmt.Errorf("%w: quality check %q references %q", ErrBadRef, chk.Name, chk.Ref)
		}
		if chk.Assert == nil {
			return fmt.Errorf("workflow: quality check %q has no assertion", chk.Name)
		}
	}
	return nil
}

// fuzzRegistry holds capabilities whose ports share types and names,
// so that refs resolve to several candidate ports: two producers of
// scalar.int "n", an output port whose name holds a '.', and optional
// inputs.
func fuzzRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	r := registry.New()
	nop := func(*registry.Call) error { return nil }
	for _, c := range []registry.Capability{
		{Name: "f.src", Outputs: []registry.Port{{Name: "n", Type: registry.TInt}, {Name: "s", Type: registry.TString}}},
		{Name: "f.dbl", Inputs: []registry.Port{{Name: "n", Type: registry.TInt}},
			Outputs: []registry.Port{{Name: "n", Type: registry.TInt}}},
		{Name: "f.pair", Inputs: []registry.Port{{Name: "a", Type: registry.TInt}, {Name: "b", Type: registry.TString, Optional: true}},
			Outputs: []registry.Port{{Name: "n", Type: registry.TInt}, {Name: "x.y", Type: registry.TString}}},
		{Name: "f.str", Inputs: []registry.Port{{Name: "s", Type: registry.TString}},
			Outputs: []registry.Port{{Name: "s", Type: registry.TString}, {Name: "n", Type: registry.TFloat}}},
		{Name: "f.opt", Inputs: []registry.Port{{Name: "n", Type: registry.TInt, Optional: true}, {Name: "s", Type: registry.TString, Optional: true}},
			Outputs: []registry.Port{{Name: "t", Type: registry.TString}}},
	} {
		c.Framework, c.Description, c.Impl = "f", "fuzz capability", nop
		r.MustRegister(c)
	}
	return r
}

// The vocabularies fuzz bytes pick from. Each holds a value no
// workflow can resolve: an empty or dotted ID, an unknown capability,
// an input name no capability has, a port no step has and refs with no
// dot, an empty port or a dotted port.
var (
	fuzzIDs   = []string{"s0", "s1", "s2", "s3", "s4", "", "a.b"}
	fuzzCaps  = []string{"f.src", "f.dbl", "f.pair", "f.str", "f.opt", "f.none"}
	fuzzNames = []string{"n", "s", "a", "b", "t", "zz"}
	fuzzPorts = []string{"n", "s", "t", "x.y", "x", ""}
)

// fuzzDecoder reads a workflow out of fuzz bytes, one choice per byte;
// once the bytes run out every choice is 0.
type fuzzDecoder struct{ data []byte }

func (d *fuzzDecoder) next(n int) int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b) % n
}

func (d *fuzzDecoder) ref() string {
	switch d.next(8) {
	case 0:
		return fuzzIDs[d.next(len(fuzzIDs))] // no port
	case 1:
		return fuzzIDs[d.next(len(fuzzIDs))] + ".x.y.z"
	default:
		return fuzzIDs[d.next(len(fuzzIDs))] + "." + fuzzPorts[d.next(len(fuzzPorts))]
	}
}

func (d *fuzzDecoder) workflow() *Workflow {
	w := &Workflow{Name: "fuzz"}
	for range d.next(7) {
		s := Step{ID: fuzzIDs[d.next(len(fuzzIDs))], Capability: fuzzCaps[d.next(len(fuzzCaps))]}
		// k%4 inputs. Below 4 they are what a map of the same draws
		// holds: a repeated name keeps its last binding, in name order.
		// From 4 up they stay in the order drawn, repeats included.
		if k := d.next(8); k%4 > 0 || d.next(2) == 1 {
			s.Inputs = Inputs{}
			for range k % 4 {
				var b Binding
				switch d.next(5) {
				case 0:
					b = Lit(d.next(3))
				case 1:
					b = Binding{} // a nil literal
				case 2:
					b = Binding{Literal: "x", Ref: d.ref()} // ambiguous
				default:
					b = Binding{Ref: d.ref()}
				}
				s.Inputs = append(s.Inputs, Input{fuzzNames[d.next(len(fuzzNames))], b})
			}
			if k < 4 {
				s.Inputs = mapOrder(s.Inputs)
			}
		}
		w.Steps = append(w.Steps, s)
	}
	if n := d.next(3); n > 0 {
		w.Outputs = map[string]string{}
		for i := range n {
			w.Outputs[fmt.Sprintf("out%d", i)] = d.ref()
		}
	}
	for i := range d.next(3) {
		chk := QualityCheck{Name: fmt.Sprintf("chk%d", i), Ref: d.ref()}
		if d.next(4) != 0 {
			chk.Assert = func(any) (bool, string) { return true, "" }
		}
		w.Checks = append(w.Checks, chk)
	}
	return w
}

// mapOrder returns the bindings a map[string]Binding filled from in
// holds, in name order: a repeated name keeps its last binding.
func mapOrder(in Inputs) Inputs {
	m := map[string]Binding{}
	for _, x := range in {
		m[x.Name] = x.Binding
	}
	out := Inputs{}
	for name, b := range m {
		out = append(out, Input{name, b})
	}
	slices.SortFunc(out, func(a, b Input) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// namesIncrease reports whether every step's input names strictly
// increase.
func namesIncrease(w *Workflow) bool {
	for _, s := range w.Steps {
		for k := 1; k < len(s.Inputs); k++ {
			if s.Inputs[k].Name <= s.Inputs[k-1].Name {
				return false
			}
		}
	}
	return true
}

// errClass is the sentinel err wraps, or nil for the errors that wrap
// none (an empty or dotted ID, an unknown binding, a check without an
// assertion).
func errClass(err error) error {
	for _, class := range []error{ErrEmptyWorkflow, ErrUnknownCap, ErrBadRef, ErrTypeMismatch,
		ErrUnboundInput, ErrDuplicateStep, ErrAmbiguousBinding, ErrInputOrder} {
		if errors.Is(err, class) {
			return class
		}
	}
	return nil
}

// orderDependent reports whether refValidate's text for err depends on
// map order: it names one of two or more unresolvable workflow
// outputs. (A step's inputs are a slice, which both read in order.)
func orderDependent(w *Workflow, reg *registry.Registry, err error) bool {
	if !strings.Contains(err.Error(), ": workflow output ") {
		return false
	}
	bad := 0
	for _, ref := range w.Outputs {
		if _, ok := refType(ref, len(w.Steps), stepIndex(w), stepCaps(w, reg)); !ok {
			bad++
		}
	}
	return bad > 1
}

func stepIndex(w *Workflow) map[string]int {
	index := map[string]int{}
	for i, s := range w.Steps {
		index[s.ID] = i
	}
	return index
}

func stepCaps(w *Workflow, reg *registry.Registry) []*registry.Capability {
	caps := make([]*registry.Capability, len(w.Steps))
	for i, s := range w.Steps {
		caps[i], _ = reg.Get(s.Capability)
	}
	return caps
}

// FuzzValidate holds Validate to refValidate over workflows decoded
// from fuzz bytes, their inputs in any order: Validate and Compile
// must fail with ErrInputOrder exactly when some step's input names do
// not strictly increase. Otherwise Validate must give refValidate's
// verdict, sentinel and text, except where refValidate's text depends
// on map order, where the sentinel alone must agree, and Compile,
// which validates through the same code, must reject exactly what
// Validate rejects.
func FuzzValidate(f *testing.F) {
	for _, seed := range []string{
		"", // no steps
		// s0 f.src; s1 f.dbl n ← s0.n; s2 f.str s ← s0.s; output s2.n;
		// a check on s1.n.
		"\x03\x00\x00\x00\x00\x01\x01\x01\x03\x02\x00\x00\x00\x02\x03\x01\x03\x02\x00\x01\x01\x01\x02\x02\x00\x01\x02\x01\x00\x01",
		// s1 f.pair a ← s0.n; s2 f.str s ← s1.x.y, a dotted port.
		"\x03\x00\x00\x00\x00\x01\x02\x01\x03\x02\x00\x00\x02\x02\x03\x01\x03\x02\x01\x03\x01",
		// s2 f.dbl n ← s1.n, a scalar.float.
		"\x03\x00\x00\x00\x00\x01\x03\x01\x03\x02\x00\x01\x01\x02\x01\x01\x03\x02\x01\x00\x00",
		// s1 f.dbl n ← s1.n, its own output.
		"\x02\x00\x00\x00\x00\x01\x01\x01\x03\x02\x01\x00\x00",
		// A check without an assertion.
		"\x01\x00\x00\x00\x00\x00\x01\x02\x00\x00\x00",
		// Random bytes that reach an empty ID, unknown bindings, an
		// unbound input, a bad ref, an ambiguous binding, an unknown
		// capability, a dotted ID, bad output refs, a duplicate ID and a
		// bad check ref.
		"\n\f\b\b\x0e\x02\x04\a\b\x0e\x03\x01\x00\x04\v\x03\x00\t\x05\x06",
		"\r\n\x06\x0f\x0f\x03\x04\x02\x03\n\f\x0f\v\x00\r\r\t\b\x05\f\b\n",
		"\r\b\a\f\x03\t\f\r\f\x03\x05\x0f\x01\x03\x0f\x0e\x05\f\x01\t\x04\x0e\x0f\n\x0e\n\x0e\x05\x0f\x01\t\n\x0e",
		"\n\x0e\a\a\x03\f\n\v\x05\x04\x05\v\x0f\f\a\t\r\x04\x04\x00\x0f\a\b\f",
		"\f\x00\r\t\a\f\x06\x03\f\a\v\v\x01\x00\v\x03\x01\a\x04\r\v\x0e\r\x02\x01\f\x0f\x0f\r",
		"\t\x0e\x05\x00\x05\x01\x06\x0e\x04\x0e\x06\t\n\x04",
		"\x05\x06\x05\r\x05\x02\x02\x03\x04\x00\x05\v\x03\x0e\n\x0f\t\x0e\x0e\x00\x03\x00\b\x0f\x01\r",
		"\x01\a\x00\b\n\x0e\x02\x0e\v\x02\x00\x01\v\t",
		"\b\v\t\x05\x0f\b\x01\x0e\r\a\x0f\a\a\x0f\x05\x0f\x05\x06\x03\x06\t\x04\x02\f\x02",
		"\x03\v\n\x00\x01",
		"\b\b\x06\b\x03\f\n\x03\r\x06\x03\x0f\b\a\r\t\r\x01\x01\x0f\a\r\x01\x04\r\v\t\v\x02\x0e\n",
	} {
		f.Add([]byte(seed))
	}
	reg := fuzzRegistry(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := (&fuzzDecoder{data: data}).workflow()
		got := w.Validate(reg)
		if !namesIncrease(w) {
			if !errors.Is(got, ErrInputOrder) {
				t.Fatalf("Validate = %v, want %v\n%s", got, ErrInputOrder, w.Describe())
			}
			if _, err := Compile(w, reg); !errors.Is(err, ErrInputOrder) {
				t.Fatalf("Compile = %v, want %v", err, ErrInputOrder)
			}
			return
		}
		want := refValidate(w, reg)
		if (got == nil) != (want == nil) {
			t.Fatalf("Validate = %v, reference %v\n%s", got, want, w.Describe())
		}
		if got == nil {
			if _, err := Compile(w, reg); err != nil {
				t.Fatalf("Compile rejects a valid workflow: %v\n%s", err, w.Describe())
			}
			return
		}
		if errClass(got) != errClass(want) {
			t.Fatalf("Validate = %v, reference %v: different classes\n%s", got, want, w.Describe())
		}
		if got.Error() != want.Error() && !orderDependent(w, reg, want) {
			t.Fatalf("Validate = %q\nreference  %q\n%s", got, want, w.Describe())
		}
		if _, err := Compile(w, reg); errClass(err) != errClass(want) {
			t.Fatalf("Compile = %v, reference %v", err, want)
		}
	})
}
