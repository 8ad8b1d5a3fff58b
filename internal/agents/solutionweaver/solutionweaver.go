// Package solutionweaver implements ArachNet's third agent: solution
// implementation. It turns a workflow design into the executable
// artifact users run: it validates the dataflow, weaves quality
// assurance into the workflow (consistency verification, sanity checks,
// uncertainty quantification — embedded during generation, not bolted
// on afterwards), and emits the generated code listing whose size is
// the paper's per-case-study LoC metric.
package solutionweaver

import (
	"bytes"
	"encoding/json"
	"fmt"

	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// Solution is SolutionWeaver's output artifact. It is immutable once
// woven, so a cached plan shares it between asks and goroutines.
type Solution struct {
	// Workflow is the executable plan with quality checks attached.
	Workflow *workflow.Workflow
	// Language identifies the listing dialect.
	Language string
	// ChecksAdded counts the embedded quality checks.
	ChecksAdded int
	// reg is the registry the workflow was woven against. A registry
	// only grows and a registered capability never changes, so a
	// listing rendered from it later is the one Weave could have
	// rendered. A Solution not made by Weave has none, and no listing.
	reg *registry.Registry
}

// AppendCode appends the generated, human-reviewable implementation
// listing (Python-style, mirroring the paper's prototype output) to
// dst and returns the extended buffer. Every call renders it afresh
// and, into a buffer with room, allocates nothing.
func (s *Solution) AppendCode(dst []byte) []byte {
	g := codegens.Get().(*codegen)
	dst = g.render(dst, s)
	codegens.Put(g)
	return dst
}

// Code renders the listing AppendCode appends and returns it as a new
// string.
func (s *Solution) Code() string {
	g, listing := s.listing()
	code := string(listing)
	codegens.Put(g)
	return code
}

// LoC renders the listing and returns its number of non-empty lines,
// the paper's per-case-study size metric.
func (s *Solution) LoC() int {
	g, listing := s.listing()
	loc := linesOfCode(listing)
	codegens.Put(g)
	return loc
}

// listing renders s's listing into the scratch buffer of a pooled
// codegen, which the caller puts back once done with the bytes.
func (s *Solution) listing() (*codegen, []byte) {
	g := codegens.Get().(*codegen)
	g.scratch = g.render(g.scratch[:0], s)
	return g, g.scratch
}

// MarshalJSON writes s as the object of its listing and fields: the
// keys Workflow, Code, LoC, Language and ChecksAdded, the listing
// rendered once. It escapes no HTML, so the encoder that calls it
// applies its own setting.
func (s *Solution) MarshalJSON() ([]byte, error) {
	g, listing := s.listing()
	v := struct {
		Workflow    *workflow.Workflow
		Code        string
		LoC         int
		Language    string
		ChecksAdded int
	}{s.Workflow, string(listing), linesOfCode(listing), s.Language, s.ChecksAdded}
	codegens.Put(g)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes()[:buf.Len()-1], nil // Encode's newline
}

// Agent is the SolutionWeaver agent.
type Agent struct{}

// New returns a SolutionWeaver.
func New() *Agent { return &Agent{} }

// Weave builds the executable solution from a designed workflow. The
// design is validated once, here: weaving adds only checks on outputs
// of steps that validation has already resolved, and the woven
// workflow is validated again wherever it is compiled. The listing is
// not rendered here: the Solution renders it whenever it is read.
func (a *Agent) Weave(wf *workflow.Workflow, reg *registry.Registry) (*Solution, error) {
	if wf == nil {
		return nil, fmt.Errorf("solutionweaver: nil workflow")
	}
	if err := wf.Validate(reg); err != nil {
		return nil, fmt.Errorf("solutionweaver: design does not validate: %w", err)
	}
	// Work on a shallow copy so the design artifact stays pristine.
	woven := *wf
	a.weaveChecks(&woven, reg)
	return &Solution{
		Workflow:    &woven,
		Language:    "python-style pseudocode",
		ChecksAdded: len(woven.Checks) - len(wf.Checks),
		reg:         reg,
	}, nil
}

// weaveChecks attaches a type-appropriate quality check to every step
// output, into a fresh Checks slice of exactly the size it ends at: a
// cached plan keeps its Solution.
func (a *Agent) weaveChecks(wf *workflow.Workflow, reg *registry.Registry) {
	woven := 0
	for _, s := range wf.Steps {
		if cap, err := reg.Get(s.Capability); err == nil {
			for _, out := range cap.Outputs {
				if _, _, assert := checkForType(out.Type); assert != nil {
					woven++
				}
			}
		}
	}
	checks := make([]workflow.QualityCheck, len(wf.Checks), len(wf.Checks)+woven)
	copy(checks, wf.Checks)
	for _, s := range wf.Steps {
		cap, err := reg.Get(s.Capability)
		if err != nil {
			continue
		}
		for _, out := range cap.Outputs {
			label, kind, assert := checkForType(out.Type)
			if assert == nil {
				continue
			}
			// The name is "label:step.port"; the ref is its suffix.
			name := label + ":" + s.ID + "." + out.Name
			checks = append(checks, workflow.QualityCheck{
				Name: name, Kind: kind, Ref: name[len(label)+1:], Assert: assert,
			})
		}
	}
	wf.Checks = checks
}

// checkForType returns the embedded QA appropriate for a data type: a
// label naming the check, its kind and its assertion (nil when the
// type gets no check). The assertions inspect values structurally (via
// small interfaces and reflection-free type switches on the shared
// vocabulary types) and never fail the run — they annotate it.
func checkForType(t registry.DataType) (string, workflow.QualityKind, func(any) (bool, string)) {
	switch t {
	case registry.TLinkSet:
		return "nonempty-links", workflow.CheckSanity, func(v any) (bool, string) {
			n := lenOf(v)
			if n == 0 {
				return false, "no links extracted; downstream impact will be vacuous"
			}
			return true, fmt.Sprintf("%d links", n)
		}
	case registry.TIPSet:
		return "nonempty-ips", workflow.CheckSanity, func(v any) (bool, string) {
			if lenOf(v) == 0 {
				return false, "no IPs extracted"
			}
			return true, ""
		}
	case registry.TGeoTable:
		return "geo-coverage", workflow.CheckConsistency, func(v any) (bool, string) {
			if lenOf(v) == 0 {
				return false, "geolocation resolved nothing"
			}
			return true, ""
		}
	case registry.TImpact:
		return "impact-sane", workflow.CheckSanity, func(v any) (bool, string) {
			s, ok := v.(interface{ TopCountries(int) []string })
			if !ok {
				return false, "unexpected impact type"
			}
			if len(s.TopCountries(1)) == 0 {
				return false, "impact report names no countries"
			}
			return true, ""
		}
	case registry.TAnomaly, registry.TVerdict:
		return "uncertainty-reported", workflow.CheckUncertainty, func(v any) (bool, string) {
			c, ok := confidenceOf(v)
			if !ok {
				return false, "no confidence field"
			}
			if c < 0 || c > 1 {
				return false, fmt.Sprintf("confidence %f out of [0,1]", c)
			}
			return true, fmt.Sprintf("confidence %.2f", c)
		}
	case registry.TFloat:
		return "float-finite", workflow.CheckSanity, func(v any) (bool, string) {
			f, ok := v.(float64)
			if !ok {
				return false, "not a float"
			}
			if f != f {
				return false, "NaN"
			}
			return true, ""
		}
	}
	return "", "", nil
}

// lenOf returns the length of the common slice shapes flowing through
// workflows, or -1 when unknown.
func lenOf(v any) int {
	switch x := v.(type) {
	case interface{ Len() int }:
		return x.Len()
	default:
		return sliceLen(v)
	}
}

// confidenceOf extracts a confidence score from vocabulary types that
// expose one.
func confidenceOf(v any) (float64, bool) {
	type confidencer interface{ ConfidenceValue() float64 }
	if c, ok := v.(confidencer); ok {
		return c.ConfidenceValue(), true
	}
	// Fall back to a struct-field convention via a tiny adapter set.
	switch x := v.(type) {
	case interface{ GetConfidence() float64 }:
		return x.GetConfidence(), true
	}
	return confidenceField(v)
}
