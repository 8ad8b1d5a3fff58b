// Package workflowscout implements ArachNet's second agent: solution
// space exploration and workflow design. It converts QueryMind's
// structured sub-problems into concrete workflow candidates by
// goal-driven backward chaining over the capability registry, explores
// alternatives adaptively (simple queries get one direct path, complex
// queries get a comparison of candidates), scores the trade-offs, and
// returns the chosen design with its rationale.
package workflowscout

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// Candidate is one fully realized workflow with its trade-off scores.
type Candidate struct {
	Workflow       *workflow.Workflow
	StepCount      int
	FrameworkCount int
	TotalCost      int
	Score          float64 // lower is better
	Rationale      string
}

// Design is WorkflowScout's output artifact.
type Design struct {
	Chosen *workflow.Workflow
	// Alternatives holds every scored candidate including the chosen
	// one, best first.
	Alternatives []Candidate
	// Explored is the number of candidates generated.
	Explored int
	// Strategy is "direct" for simple queries or "exploratory".
	Strategy string
}

// Agent is the WorkflowScout agent.
type Agent struct {
	// MaxCandidates bounds exploratory search (default 6).
	MaxCandidates int
	// DirectThreshold is the complexity below which a single direct
	// path is designed without exploring alternatives (default 3).
	DirectThreshold int
}

// New returns a WorkflowScout with default settings.
func New() *Agent { return &Agent{MaxCandidates: 6, DirectThreshold: 3} }

// Design converts a problem spec into a workflow design against the
// registry.
func (a *Agent) Design(ps *querymind.ProblemSpec, reg *registry.Registry) (*Design, error) {
	if a.MaxCandidates <= 0 {
		a.MaxCandidates = 6
	}
	if a.DirectThreshold <= 0 {
		a.DirectThreshold = 3
	}
	d := &Design{Strategy: "exploratory"}
	limit := a.MaxCandidates
	if ps.Complexity < a.DirectThreshold {
		d.Strategy = "direct"
		limit = 1
	}

	candidates, err := a.enumerate(ps, reg, limit)
	if err != nil {
		return nil, err
	}
	for i := range candidates {
		scoreCandidate(&candidates[i], reg, ps)
	}
	slices.SortStableFunc(candidates, func(a, b Candidate) int { return cmp.Compare(a.Score, b.Score) })
	d.Alternatives = candidates
	d.Explored = len(candidates)
	d.Chosen = candidates[0].Workflow
	return d, nil
}

// scoreCandidate computes the trade-off score: fewer steps, lower cost
// and fewer frameworks win, while methodological fit — tag affinity
// between each sub-problem and the capability realizing it — earns a
// strong credit. The framework penalty implements the paper's "skilled
// restraint" (cross-framework integration must buy its way in); the
// affinity credit prevents a cheaper but methodologically wrong
// capability from displacing the right one just because the types line
// up.
func scoreCandidate(c *Candidate, reg *registry.Registry, ps *querymind.ProblemSpec) {
	c.StepCount = len(c.Workflow.Steps)
	c.FrameworkCount = len(c.Workflow.Frameworks(reg))
	for _, s := range c.Workflow.Steps {
		if cap, err := reg.Get(s.Capability); err == nil {
			c.TotalCost += cap.Cost
		}
	}
	spTags := map[string][]string{}
	for _, sp := range ps.SubProblems {
		spTags[sp.ID] = sp.Tags
	}
	affinity := 0
	for _, s := range c.Workflow.Steps {
		tags, ok := spTags[s.Phase]
		if !ok {
			continue
		}
		cap, err := reg.Get(s.Capability)
		if err != nil {
			continue
		}
		for _, t := range tags {
			if cap.HasTag(t) {
				affinity++
			}
		}
	}
	c.Score = 2.0*float64(c.StepCount) + 1.0*float64(c.TotalCost) +
		3.0*float64(c.FrameworkCount-1) - 2.0*float64(affinity)
	c.Rationale = fmt.Sprintf("%d steps across %d frameworks, total cost %d, methodological affinity %d",
		c.StepCount, c.FrameworkCount, c.TotalCost, affinity)
}

// enumerate generates up to limit distinct candidates by varying the
// capability chosen for each required sub-problem (one variation at a
// time from the greedy base plan).
func (a *Agent) enumerate(ps *querymind.ProblemSpec, reg *registry.Registry, limit int) ([]Candidate, error) {
	base, err := a.plan(ps, reg, nil)
	if err != nil {
		return nil, err
	}
	candidates := []Candidate{{Workflow: base}}
	if limit <= 1 {
		return candidates, nil
	}
	seen := map[string]bool{fingerprint(base): true}
	for _, sp := range ps.Required() {
		producers := rankedProducers(reg, sp)
		for _, alt := range producers[1:] {
			if len(candidates) >= limit {
				return candidates, nil
			}
			wf, err := a.plan(ps, reg, map[string]string{sp.ID: alt.Name})
			if err != nil {
				continue // this alternative cannot be realized; skip
			}
			fp := fingerprint(wf)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			candidates = append(candidates, Candidate{Workflow: wf})
		}
	}
	return candidates, nil
}

func fingerprint(w *workflow.Workflow) string {
	return strings.Join(w.CapabilityNames(), "|")
}

// planner holds the in-progress backward-chaining state.
type planner struct {
	reg    *registry.Registry
	ps     *querymind.ProblemSpec
	steps  []workflow.Step
	have   map[registry.DataType]string // type → "step.port" of latest artifact
	undo   []haveWrite                  // each write to have, oldest first
	nextID int
	force  map[string]string // subproblem ID → forced capability
}

// haveWrite records the ref one write to planner.have replaced ("" if
// none), so a failed attempt can be rolled back.
type haveWrite struct {
	t    registry.DataType
	prev string
}

// plan builds one workflow, forcing specific capabilities for the given
// sub-problems when requested.
func (a *Agent) plan(ps *querymind.ProblemSpec, reg *registry.Registry, force map[string]string) (*workflow.Workflow, error) {
	p := &planner{reg: reg, ps: ps, have: map[registry.DataType]string{}, force: force}
	required := ps.Required()
	outputs := make(map[string]string, len(required))
	for _, sp := range required {
		ref, err := p.satisfy(sp)
		if err != nil {
			return nil, fmt.Errorf("workflowscout: sub-problem %q: %w", sp.ID, err)
		}
		outputs[sp.ID] = ref
	}
	// Only sink sub-problems (nothing depends on them) become outputs.
	depended := map[string]bool{}
	for _, sp := range ps.SubProblems {
		for _, d := range sp.DependsOn {
			depended[d] = true
		}
	}
	finalOutputs := make(map[string]string, len(outputs))
	for id, ref := range outputs {
		if !depended[id] {
			finalOutputs[id] = ref
		}
	}
	wf := &workflow.Workflow{
		Name:    "arachnet-" + string(ps.Query.Intent),
		Query:   ps.Query.Raw,
		Steps:   p.steps,
		Outputs: finalOutputs,
	}
	if err := wf.Validate(reg); err != nil {
		return nil, fmt.Errorf("workflowscout: designed workflow invalid: %w", err)
	}
	return wf, nil
}

// satisfy realizes one sub-problem, returning the "step.port" ref of
// its artifact.
func (p *planner) satisfy(sp querymind.SubProblem) (string, error) {
	producers := rankedProducers(p.reg, sp)
	if forced, ok := p.force[sp.ID]; ok {
		var only []*registry.Capability
		for _, c := range producers {
			if c.Name == forced {
				only = append(only, c)
			}
		}
		producers = only
	}
	if len(producers) == 0 {
		return "", fmt.Errorf("no capability produces %s", sp.Produces)
	}
	var lastErr error
	for _, cap := range producers {
		ref, err := p.tryCapability(cap, sp, 0)
		if err == nil {
			return ref, nil
		}
		lastErr = err
	}
	return "", lastErr
}

// rankedProducers orders candidate capabilities by tag affinity with
// the sub-problem (composites get a validated-pattern bonus), then by
// cost, then by name.
func rankedProducers(reg *registry.Registry, sp querymind.SubProblem) []*registry.Capability {
	producers := reg.Producing(sp.Produces) // a copy, ours to sort
	affinity := func(c *registry.Capability) int {
		aff := 0
		for _, t := range sp.Tags {
			if c.HasTag(t) {
				aff++
			}
		}
		if c.Composite {
			// Promoted patterns proved out end-to-end in earlier runs;
			// prefer them (the registry-evolution payoff).
			aff += 3
		}
		return aff
	}
	slices.SortStableFunc(producers, func(a, b *registry.Capability) int {
		if x, y := affinity(a), affinity(b); x != y {
			return y - x
		}
		if a.Cost != b.Cost {
			return a.Cost - b.Cost
		}
		return strings.Compare(a.Name, b.Name)
	})
	return producers
}

// maxChainDepth bounds backward chaining when an input type has no
// existing artifact and must be produced by inserting more steps.
const maxChainDepth = 4

// tryCapability appends the steps needed to invoke cap, recursively
// producing missing inputs, and returns the ref of the sub-problem's
// output port. On failure the planner state is rolled back: the steps
// it appended are dropped and its writes to have undone.
func (p *planner) tryCapability(cap *registry.Capability, sp querymind.SubProblem, depth int) (string, error) {
	if depth > maxChainDepth {
		return "", fmt.Errorf("chaining depth exceeded at %s", cap.Name)
	}
	savedSteps, savedUndo := len(p.steps), len(p.undo)

	bindings := make(map[string]workflow.Binding, len(cap.Inputs))
	for _, in := range cap.Inputs {
		// 1. Reuse an artifact already produced — but only when the
		// provenance is semantically compatible (see refBindable).
		if ref, ok := p.have[in.Type]; ok && refBindable(in, ref) {
			bindings[in.Name] = workflow.Binding{Ref: ref}
			continue
		}
		// 2. Bind a literal from the query context.
		if lit, ok := p.literalFor(in); ok {
			bindings[in.Name] = workflow.Lit(lit)
			continue
		}
		if in.Optional {
			continue
		}
		// 3. Backward-chain: insert a producer for the missing type.
		ref, err := p.produceType(in, depth+1)
		if err != nil {
			p.rollback(savedSteps, savedUndo)
			return "", fmt.Errorf("input %q (%s) of %s: %w", in.Name, in.Type, cap.Name, err)
		}
		bindings[in.Name] = workflow.Binding{Ref: ref}
	}

	id := p.addStep(cap, bindings, sp.ID)
	var outRef string
	for _, out := range cap.Outputs {
		ref := id + "." + out.Name
		p.undo = append(p.undo, haveWrite{t: out.Type, prev: p.have[out.Type]})
		p.have[out.Type] = ref
		if out.Type == sp.Produces {
			outRef = ref
		}
	}
	if outRef == "" {
		p.rollback(savedSteps, savedUndo)
		return "", fmt.Errorf("%s does not emit %s", cap.Name, sp.Produces)
	}
	return outRef, nil
}

// rollback drops the steps appended since len(p.steps) was steps and
// undoes, newest first, the writes to have logged since len(p.undo)
// was undo. Step IDs stay consumed.
func (p *planner) rollback(steps, undo int) {
	p.steps = p.steps[:steps]
	for i := len(p.undo) - 1; i >= undo; i-- {
		if w := p.undo[i]; w.prev != "" {
			p.have[w.t] = w.prev
		} else {
			delete(p.have, w.t)
		}
	}
	p.undo = p.undo[:undo]
}

// scalarType reports whether a data type is a generic scalar
// ("scalar.*"). Scalars are contextual values — a cable name, a
// probability, a rendered text — whose meaning lives in the port name,
// not the type; matching them on type alone wires semantically
// unrelated values together.
func scalarType(t registry.DataType) bool {
	return strings.HasPrefix(string(t), "scalar.")
}

// refBindable reports whether a produced artifact may ground an input
// port. Domain types (cable.list, impact.report, ...) are precise
// enough that any producer of the type qualifies. Generic scalars only
// qualify when the producing port's name matches the consuming port's
// name — `correlation ← correlate_anomaly.correlation` is real
// dataflow, while `name ← render.text` (the promoted-composite cascade
// bug: a rendered impact table fed to nautilus.resolve_cable as a
// cable name) is a type-level pun.
func refBindable(in registry.Port, ref string) bool {
	if !scalarType(in.Type) {
		return true
	}
	return workflow.RefPort(ref) == in.Name
}

// produceType inserts the cheapest realizable producer chain for an
// input's type. For scalar inputs only producers exporting a port with
// the input's own name are considered (see refBindable).
func (p *planner) produceType(in registry.Port, depth int) (string, error) {
	t := in.Type
	if depth > maxChainDepth {
		return "", fmt.Errorf("chaining depth exceeded for %s", t)
	}
	producers := p.reg.Producing(t)
	if len(producers) == 0 {
		return "", fmt.Errorf("no capability produces %s", t)
	}
	var lastErr error
	for _, cap := range producers {
		if scalarType(t) {
			if port, ok := cap.OutputPort(in.Name); !ok || port.Type != t {
				lastErr = fmt.Errorf("no producer exports scalar port %q of type %s", in.Name, t)
				continue
			}
		}
		ref, err := p.tryCapability(cap, querymind.SubProblem{ID: "auto", Produces: t}, depth)
		if err == nil {
			if scalarType(t) && workflow.RefPort(ref) != in.Name {
				// The capability exports several ports of this scalar
				// type; take the one whose name grounds the input.
				ref = workflow.RefStepID(ref) + "." + in.Name
			}
			return ref, nil
		}
		lastErr = err
	}
	return "", lastErr
}

func (p *planner) addStep(cap *registry.Capability, bindings map[string]workflow.Binding, phase string) string {
	p.nextID++
	id := "s" + strconv.Itoa(p.nextID)
	p.steps = append(p.steps, workflow.Step{
		ID: id, Capability: cap.Name, Inputs: bindings, Phase: phase,
	})
	return id
}

// literalFor derives a literal binding for an input port from the
// query specification — the contextual grounding an expert applies when
// wiring tools ("the cable the user named", "the stated probability").
func (p *planner) literalFor(in registry.Port) (any, bool) {
	q := p.ps.Query
	switch in.Type {
	case registry.TString:
		switch in.Name {
		case "name":
			if len(q.Cables) > 0 {
				return string(q.Cables[0]), true
			}
		case "region_a":
			if len(q.Regions) > 0 {
				return string(q.Regions[0]), true
			}
		case "region_b":
			if len(q.Regions) > 1 {
				return string(q.Regions[1]), true
			}
		}
	case registry.TFloat:
		switch in.Name {
		case "fail_prob":
			if q.FailProb > 0 {
				return q.FailProb, true
			}
			if q.Intent == nlq.IntentDisasterImpact {
				return 0.1, true // QueryMind's documented default
			}
		}
	case registry.TStringList:
		if in.Name == "types" && len(q.Disasters) > 0 {
			return append([]string(nil), q.Disasters...), true
		}
	}
	return nil, false
}
