// Package workflowscout implements ArachNet's second agent: solution
// space exploration and workflow design. It converts QueryMind's
// structured sub-problems into concrete workflow candidates by
// goal-driven backward chaining over the capability registry, explores
// alternatives adaptively (simple queries get one direct path, complex
// queries get a comparison of candidates), scores the trade-offs, and
// returns the chosen design with its rationale.
//
// Candidates are planned and scored from primitive capabilities only,
// so a composite the curator promoted never changes what a plan
// computes. It abbreviates: once the candidates are scored, each run of
// steps that spells a composite's chain is written as one step naming
// the composite, which workflow.Compile expands back into those steps.
package workflowscout

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// Candidate is one fully realized workflow with its trade-off scores.
// The scores describe the primitive steps the workflow runs, with every
// composite expanded.
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

const (
	// maxCandidates bounds exploratory search.
	maxCandidates = 6
	// directThreshold is the complexity below which a single direct
	// path is designed without exploring alternatives.
	directThreshold = 3
)

// Agent is the WorkflowScout agent. It holds no state, so one Agent
// may design for several goroutines at once.
type Agent struct{}

// New returns a WorkflowScout.
func New() *Agent { return &Agent{} }

// Design converts a problem spec into a workflow design against the
// registry.
func (*Agent) Design(ps *querymind.ProblemSpec, reg *registry.Registry) (*Design, error) {
	limit := maxCandidates
	d := &Design{Strategy: "exploratory"}
	if ps.Complexity < directThreshold {
		d.Strategy = "direct"
		limit = 1
	}

	ds := newDesigner(ps, reg)
	defer ds.release()
	candidates, err := ds.enumerate(limit)
	if err != nil {
		return nil, err
	}
	for i := range candidates {
		scoreCandidate(&candidates[i], reg, ps)
	}
	slices.SortStableFunc(candidates, func(a, b Candidate) int { return cmp.Compare(a.Score, b.Score) })
	for i := range candidates {
		candidates[i].Workflow = ds.abbreviate(candidates[i].Workflow)
	}
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
	steps := c.Workflow.Steps
	c.StepCount = len(steps)
	var buf [16]*registry.Capability
	caps := buf[:0] // each resolvable step's capability
	affinity := 0
	for _, s := range steps {
		cap, err := reg.Get(s.Capability)
		if err != nil {
			continue
		}
		c.TotalCost += cap.Cost
		if !slices.ContainsFunc(caps, func(o *registry.Capability) bool { return o.Framework == cap.Framework }) {
			c.FrameworkCount++
		}
		caps = append(caps, cap)
		// The step's phase names the sub-problem it realizes; the last
		// sub-problem with that ID supplies the tags.
		for i := len(ps.SubProblems) - 1; i >= 0; i-- {
			if sp := &ps.SubProblems[i]; sp.ID == s.Phase {
				for _, t := range sp.Tags {
					if cap.HasTag(t) {
						affinity++
					}
				}
				break
			}
		}
	}
	c.Score = 2.0*float64(c.StepCount) + 1.0*float64(c.TotalCost) +
		3.0*float64(c.FrameworkCount-1) - 2.0*float64(affinity)
	var text [96]byte
	r := strconv.AppendInt(text[:0], int64(c.StepCount), 10)
	r = append(r, " steps across "...)
	r = strconv.AppendInt(r, int64(c.FrameworkCount), 10)
	r = append(r, " frameworks, total cost "...)
	r = strconv.AppendInt(r, int64(c.TotalCost), 10)
	r = append(r, ", methodological affinity "...)
	r = strconv.AppendInt(r, int64(affinity), 10)
	c.Rationale = string(r)
}

// designer plans the candidates of one Design call. It derives once
// what every candidate shares: the required sub-problems with their
// ranked producers and whether each is a sink, the query's literals
// and each type's producers. Its backward-chaining state is scratch
// that every candidate reuses, and a finished candidate copies its
// steps and their inputs out. Designers are pooled, so the scratch,
// and the step IDs and refs a designer has formatted, outlive one
// call.
type designer struct {
	reg   *registry.Registry
	ps    *querymind.ProblemSpec
	goals []goal
	name  string          // the workflow name
	lits  [numLits]any    // each literal boxed once, on first use
	types []typeProducers // reg's producers, once per type
	// prods holds the producer lists of goals and types, each a
	// capped sub-slice.
	prods []*registry.Capability
	ids   []string    // ids[k] is the ID of step k+1
	refs  [][]portRef // refs[k] holds the refs formatted for step k+1
	// composites holds each composite producing a type the candidates
	// asked for: the ones that may abbreviate a step they planned.
	composites []*registry.Capability

	// The candidate in progress. inputs holds the inputs of steps, step
	// after step, so each step's Inputs are the next len(Inputs) of
	// them; rollback truncates both together.
	steps  []workflow.Step
	inputs workflow.Inputs
	have   map[registry.DataType]artifact // type → latest artifact
	undo   []haveWrite                    // each write to have, oldest first
	binds  []workflow.Input               // the bindings of the tryCapability calls in progress
	nextID int
	force  alternative
}

// goal is one required sub-problem.
type goal struct {
	sp        *querymind.SubProblem
	producers []*registry.Capability // ranked; see rankedProducers
	sink      bool                   // nothing depends on it, so it is a workflow output
	out       artifact               // its artifact in the candidate in progress
}

// alternative forces capability cap for goals[goal]; a nil cap forces
// nothing.
type alternative struct {
	goal int
	cap  *registry.Capability
}

// artifact is the output port of step number step, whose ID is
// "s<step>"; step 0 means no artifact.
type artifact struct {
	step int
	port string
}

// haveWrite records the artifact one write to designer.have replaced
// (the zero artifact if none), so a failed attempt can be rolled back.
type haveWrite struct {
	t    registry.DataType
	prev artifact
}

type typeProducers struct {
	t    registry.DataType
	caps []*registry.Capability
}

// portRef is the ref "s<step>.<port>" of one step's port.
type portRef struct {
	port, ref string
}

// maxStepRefs bounds the refs a pooled designer keeps for one step
// number; a list that reaches it starts over.
const maxStepRefs = 32

var designerPool = sync.Pool{New: func() any {
	return &designer{have: map[registry.DataType]artifact{}}
}}

// newDesigner takes a designer from the pool and readies it for ps
// against reg. The caller releases it.
func newDesigner(ps *querymind.ProblemSpec, reg *registry.Registry) *designer {
	d := designerPool.Get().(*designer)
	d.reg, d.ps = reg, ps
	d.name = "arachnet-" + string(ps.Query.Intent)
	for i := range ps.SubProblems {
		sp := &ps.SubProblems[i]
		if sp.Optional {
			continue
		}
		sink := true
		for _, other := range ps.SubProblems {
			if slices.Contains(other.DependsOn, sp.ID) {
				sink = false
				break
			}
		}
		d.goals = append(d.goals, goal{sp: sp, producers: d.rankedProducers(sp), sink: sink})
	}
	return d
}

// release returns d to the pool without its references into this
// call's spec, registry and workflows.
func (d *designer) release() {
	clear(d.goals[:cap(d.goals)])
	clear(d.types[:cap(d.types)])
	clear(d.prods[:cap(d.prods)])
	clear(d.steps[:cap(d.steps)])
	clear(d.inputs[:cap(d.inputs)])
	clear(d.binds[:cap(d.binds)])
	clear(d.undo[:cap(d.undo)])
	clear(d.composites[:cap(d.composites)])
	clear(d.have)
	d.goals, d.types, d.prods, d.steps, d.binds, d.undo = d.goals[:0], d.types[:0], d.prods[:0], d.steps[:0], d.binds[:0], d.undo[:0]
	d.inputs, d.composites = d.inputs[:0], d.composites[:0]
	d.reg, d.ps, d.name, d.lits, d.force = nil, nil, "", [numLits]any{}, alternative{}
	designerPool.Put(d)
}

// enumerate generates up to limit distinct candidates by varying the
// capability chosen for each required sub-problem (one variation at a
// time from the greedy base plan). Of candidates with the same
// capability sequence, the first is kept.
func (d *designer) enumerate(limit int) ([]Candidate, error) {
	if err := d.plan(alternative{}); err != nil {
		return nil, err
	}
	base, err := d.finish()
	if err != nil {
		return nil, err
	}
	if limit <= 1 {
		return []Candidate{{Workflow: base}}, nil
	}
	candidates := make([]Candidate, 1, limit)
	candidates[0].Workflow = base
	for gi := range d.goals {
		for _, alt := range d.goals[gi].producers[1:] {
			if len(candidates) >= limit {
				return slices.Clone(candidates), nil
			}
			if d.plan(alternative{goal: gi, cap: alt}) != nil {
				continue // this alternative cannot be realized; skip
			}
			if slices.ContainsFunc(candidates, d.sameCapabilities) {
				continue
			}
			wf, err := d.finish()
			if err != nil {
				continue
			}
			candidates = append(candidates, Candidate{Workflow: wf})
		}
	}
	return slices.Clone(candidates), nil
}

// sameCapabilities reports whether c's workflow has the capability
// sequence of the candidate in progress.
func (d *designer) sameCapabilities(c Candidate) bool {
	return slices.EqualFunc(c.Workflow.Steps, d.steps, func(a, b workflow.Step) bool {
		return a.Capability == b.Capability
	})
}

// plan builds one candidate in the scratch state, forcing force.cap
// for its goal when set.
func (d *designer) plan(force alternative) error {
	d.steps, d.inputs, d.undo, d.nextID, d.force = d.steps[:0], d.inputs[:0], d.undo[:0], 0, force
	clear(d.have)
	for gi := range d.goals {
		g := &d.goals[gi]
		out, err := d.satisfy(gi)
		if err != nil {
			return &planError{kind: errSubProblem, name: g.sp.ID, err: err}
		}
		g.out = out
	}
	return nil
}

// finish copies the candidate in progress out into a workflow, its
// steps' inputs into one backing array, and validates it. Only sink
// sub-problems (nothing depends on them) become outputs.
func (d *designer) finish() (*workflow.Workflow, error) {
	sinks := 0
	for _, g := range d.goals {
		if g.sink {
			sinks++
		}
	}
	outputs := make(map[string]string, sinks)
	for _, g := range d.goals {
		if g.sink {
			outputs[g.sp.ID] = d.ref(g.out)
		}
	}
	steps := make([]workflow.Step, len(d.steps))
	copy(steps, d.steps)
	ins := slices.Clone(d.inputs)
	for i := range steps {
		n := len(steps[i].Inputs)
		steps[i].Inputs, ins = ins[:n:n], ins[n:]
	}
	wf := &workflow.Workflow{
		Name:    d.name,
		Query:   d.ps.Query.Raw,
		Steps:   steps,
		Outputs: outputs,
	}
	if err := wf.Validate(d.reg); err != nil {
		return nil, fmt.Errorf("workflowscout: designed workflow invalid: %w", err)
	}
	return wf, nil
}

// satisfy realizes goals[gi], returning its artifact.
func (d *designer) satisfy(gi int) (artifact, error) {
	g := &d.goals[gi]
	if d.force.cap != nil && d.force.goal == gi {
		return d.tryCapability(d.force.cap, g.sp.Produces, g.sp.ID, 0)
	}
	if len(g.producers) == 0 {
		return artifact{}, &planError{kind: errNoProducer, t: g.sp.Produces}
	}
	var lastErr error
	for _, cap := range g.producers {
		out, err := d.tryCapability(cap, g.sp.Produces, g.sp.ID, 0)
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	return artifact{}, lastErr
}

// rankedProducers orders the primitive producers of the sub-problem's
// type by tag affinity with it, then by cost, then by name.
func (d *designer) rankedProducers(sp *querymind.SubProblem) []*registry.Capability {
	producers := d.primitives(sp.Produces) // a copy, ours to sort
	affinity := func(c *registry.Capability) int {
		aff := 0
		for _, t := range sp.Tags {
			if c.HasTag(t) {
				aff++
			}
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

// producing returns the primitive producers of t in reg.Producing's
// order, fetching them once per Design.
func (d *designer) producing(t registry.DataType) []*registry.Capability {
	for _, tp := range d.types {
		if tp.t == t {
			return tp.caps
		}
	}
	caps := d.primitives(t)
	d.types = append(d.types, typeProducers{t: t, caps: caps})
	return caps
}

// primitives copies the producers of t into d.prods, in reg.Producing's
// order, and returns the primitives among them as a list the designer
// owns; it notes the composites for abbreviate.
func (d *designer) primitives(t registry.DataType) []*registry.Capability {
	start := len(d.prods)
	d.prods = d.reg.AppendProducing(d.prods, t)
	caps := slices.DeleteFunc(d.prods[start:], func(c *registry.Capability) bool {
		if c.Composite && !slices.Contains(d.composites, c) {
			d.composites = append(d.composites, c)
		}
		return c.Composite
	})
	d.prods = d.prods[:start+len(caps)]
	return caps[:len(caps):len(caps)]
}

// abbreviate returns wf with each run of consecutive steps that spells
// the chain of a composite in d.composites written as one step naming
// the composite. That step takes the ID, phase and affinity of the
// run's last step and the bindings of its first, so Compile expands it
// into the same computations. Of the run's other steps, one that
// realizes a sub-problem, or that a remaining step or output reads,
// stays; the rest go. Longer chains are tried first, and a step is in
// one run at most. wf is returned as it is when no run matches.
func (d *designer) abbreviate(wf *workflow.Workflow) *workflow.Workflow {
	if len(d.composites) == 0 {
		return wf
	}
	slices.SortFunc(d.composites, func(a, b *registry.Capability) int {
		return cmp.Or(len(b.Chain)-len(a.Chain), strings.Compare(a.Name, b.Name))
	})
	n := len(wf.Steps)
	steps := slices.Clone(wf.Steps)
	used := make([]bool, n)  // in a matched run
	spare := make([]bool, n) // in a run, not its last step, and no sub-problem's
	for _, c := range d.composites {
		for i := 0; i+len(c.Chain) <= n; i++ {
			run := wf.Steps[i : i+len(c.Chain)]
			if slices.Contains(used[i:i+len(run)], true) || !spells(run, c.Chain) {
				continue
			}
			last := &steps[i+len(run)-1]
			*last = workflow.Step{ID: last.ID, Capability: c.Name, Inputs: run[0].Inputs, Phase: last.Phase, Affinity: last.Affinity}
			for k := range run {
				used[i+k] = true
				spare[i+k] = k < len(run)-1 && run[k].Phase == "auto"
			}
		}
	}
	if !slices.Contains(used, true) {
		return wf
	}
	// A spare step goes unless a step that stays, or an output, reads
	// it; readers come later, so one backward pass decides.
	read := make(map[string]bool, n)
	for _, ref := range wf.Outputs {
		read[workflow.RefStepID(ref)] = true
	}
	for j := n - 1; j >= 0; j-- {
		if spare[j] && !read[steps[j].ID] {
			steps[j].ID = "" // dropped below
			continue
		}
		for _, b := range steps[j].Inputs {
			if b.IsRef() {
				read[workflow.RefStepID(b.Ref)] = true
			}
		}
	}
	out := *wf
	out.Steps = slices.DeleteFunc(steps, func(s workflow.Step) bool { return s.ID == "" })
	return &out
}

// spells reports whether run holds chain's capabilities in order, each
// step after the first bound exactly as the chain binds it.
func spells(run []workflow.Step, chain []registry.ChainStep) bool {
	for k, cs := range chain {
		s := &run[k]
		if s.Capability != cs.Capability || k > 0 && len(s.Inputs) != len(cs.In) {
			return false
		}
		for name, r := range cs.In {
			b, _ := s.Inputs.Get(name)
			if workflow.RefStepID(b.Ref) != run[r.Step].ID || workflow.RefPort(b.Ref) != r.Port {
				return false
			}
		}
	}
	return true
}

// maxChainDepth bounds backward chaining when an input type has no
// existing artifact and must be produced by inserting more steps;
// produceType enforces it before each level.
const maxChainDepth = 4

// tryCapability appends the steps needed to invoke cap as a step of
// the given phase, recursively producing missing inputs, and returns
// the last of its outputs of type produces. On failure the designer
// state is rolled back: the steps it appended, and their inputs, are
// dropped and its writes to have undone.
func (d *designer) tryCapability(cap *registry.Capability, produces registry.DataType, phase string, depth int) (artifact, error) {
	savedSteps, savedInputs, savedUndo, base := len(d.steps), len(d.inputs), len(d.undo), len(d.binds)

	for _, in := range cap.Inputs {
		// 1. Reuse an artifact already produced — but only when the
		// provenance is semantically compatible (see refBindable).
		if a, ok := d.have[in.Type]; ok && refBindable(in, a) {
			d.binds = append(d.binds, workflow.Input{Name: in.Name, Binding: workflow.Binding{Ref: d.ref(a)}})
			continue
		}
		// 2. Bind a literal from the query context.
		if lit, ok := d.literalFor(in); ok {
			d.binds = append(d.binds, workflow.Input{Name: in.Name, Binding: workflow.Lit(lit)})
			continue
		}
		if in.Optional {
			continue
		}
		// 3. Backward-chain: insert a producer for the missing type.
		a, err := d.produceType(in, depth+1)
		if err != nil {
			d.binds = d.binds[:base]
			d.rollback(savedSteps, savedInputs, savedUndo)
			return artifact{}, &planError{kind: errInput, name: cap.Name, port: in, err: err}
		}
		d.binds = append(d.binds, workflow.Input{Name: in.Name, Binding: workflow.Binding{Ref: d.ref(a)}})
	}
	// The producers planned above appended their steps' inputs, so this
	// step's follow theirs, in the name order workflow.Inputs keeps.
	lo := len(d.inputs)
	d.inputs = append(d.inputs, d.binds[base:]...)
	d.binds = d.binds[:base]
	in := d.inputs[lo:len(d.inputs):len(d.inputs)]
	slices.SortFunc(in, func(a, b workflow.Input) int { return strings.Compare(a.Name, b.Name) })

	d.nextID++
	step := d.nextID
	d.steps = append(d.steps, workflow.Step{
		ID: d.id(step), Capability: cap.Name, Inputs: in, Phase: phase,
	})
	var out artifact
	for _, port := range cap.Outputs {
		a := artifact{step: step, port: port.Name}
		d.undo = append(d.undo, haveWrite{t: port.Type, prev: d.have[port.Type]})
		d.have[port.Type] = a
		if port.Type == produces {
			out = a
		}
	}
	if out.step == 0 {
		d.rollback(savedSteps, savedInputs, savedUndo)
		return artifact{}, &planError{kind: errNoEmit, name: cap.Name, t: produces}
	}
	return out, nil
}

// rollback drops the steps and inputs appended since len(d.steps) was
// steps and len(d.inputs) was inputs, and undoes, newest first, the
// writes to have logged since len(d.undo) was undo. Step IDs stay
// consumed.
func (d *designer) rollback(steps, inputs, undo int) {
	d.steps, d.inputs = d.steps[:steps], d.inputs[:inputs]
	for i := len(d.undo) - 1; i >= undo; i-- {
		if w := d.undo[i]; w.prev.step != 0 {
			d.have[w.t] = w.prev
		} else {
			delete(d.have, w.t)
		}
	}
	d.undo = d.undo[:undo]
}

// id returns the ID of step number step, "s<step>".
func (d *designer) id(step int) string {
	for len(d.ids) < step {
		d.ids = append(d.ids, "s"+strconv.Itoa(len(d.ids)+1))
	}
	return d.ids[step-1]
}

// ref returns a's "stepID.port" ref.
func (d *designer) ref(a artifact) string {
	for len(d.refs) < a.step {
		d.refs = append(d.refs, nil)
	}
	refs := d.refs[a.step-1]
	for _, r := range refs {
		if r.port == a.port {
			return r.ref
		}
	}
	if len(refs) == maxStepRefs {
		refs = refs[:0]
	}
	ref := d.id(a.step) + "." + a.port
	d.refs[a.step-1] = append(refs, portRef{port: a.port, ref: ref})
	return ref
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
func refBindable(in registry.Port, a artifact) bool {
	return !scalarType(in.Type) || a.port == in.Name
}

// produceType inserts the cheapest realizable producer chain for an
// input's type. For scalar inputs only producers exporting a port with
// the input's own name are considered (see refBindable).
func (d *designer) produceType(in registry.Port, depth int) (artifact, error) {
	t := in.Type
	if depth > maxChainDepth {
		return artifact{}, &planError{kind: errDepth, t: t}
	}
	producers := d.producing(t)
	if len(producers) == 0 {
		return artifact{}, &planError{kind: errNoProducer, t: t}
	}
	var lastErr error
	for _, cap := range producers {
		if scalarType(t) {
			if port, ok := cap.OutputPort(in.Name); !ok || port.Type != t {
				lastErr = &planError{kind: errNoScalarPort, port: in}
				continue
			}
		}
		a, err := d.tryCapability(cap, t, "auto", depth)
		if err == nil {
			if scalarType(t) {
				// The capability may export several ports of this
				// scalar type; take the one whose name grounds the
				// input.
				a.port = in.Name
			}
			return a, nil
		}
		lastErr = err
	}
	return artifact{}, lastErr
}

// The literals literalFor grounds inputs with.
const (
	litCable    = iota // the first cable the query names
	litRegionA         // its first region
	litRegionB         // its second region
	litFailProb        // its failure probability
	litTypes           // its disaster types
	numLits
)

// literalFor derives a literal binding for an input port from the
// query specification — the contextual grounding an expert applies when
// wiring tools ("the cable the user named", "the stated probability").
func (d *designer) literalFor(in registry.Port) (any, bool) {
	q := &d.ps.Query
	k := -1
	switch in.Type {
	case registry.TString:
		switch {
		case in.Name == "name" && len(q.Cables) > 0:
			k = litCable
		case in.Name == "region_a" && len(q.Regions) > 0:
			k = litRegionA
		case in.Name == "region_b" && len(q.Regions) > 1:
			k = litRegionB
		}
	case registry.TFloat:
		// A disaster query without one takes QueryMind's documented
		// default.
		if in.Name == "fail_prob" && (q.FailProb > 0 || q.Intent == nlq.IntentDisasterImpact) {
			k = litFailProb
		}
	case registry.TStringList:
		if in.Name == "types" && len(q.Disasters) > 0 {
			k = litTypes
		}
	}
	if k < 0 {
		return nil, false
	}
	if d.lits[k] == nil {
		switch k {
		case litCable:
			d.lits[k] = string(q.Cables[0])
		case litRegionA:
			d.lits[k] = string(q.Regions[0])
		case litRegionB:
			d.lits[k] = string(q.Regions[1])
		case litFailProb:
			if q.FailProb > 0 {
				d.lits[k] = q.FailProb
			} else {
				d.lits[k] = 0.1
			}
		case litTypes:
			d.lits[k] = append([]string(nil), q.Disasters...)
		}
	}
	return d.lits[k], true
}

// planErrKind selects a planError's text.
type planErrKind uint8

const (
	errSubProblem   planErrKind = iota // "workflowscout: sub-problem <name>: <err>"
	errInput                           // "input <port> (<type>) of <name>: <err>"
	errNoProducer                      // "no capability produces <t>"
	errNoScalarPort                    // "no producer exports scalar port <port> of type <type>"
	errNoEmit                          // "<name> does not emit <t>"
	errDepth                           // "chaining depth exceeded for <t>"
)

// planError is a failed planning attempt. Most are dropped when the
// next producer is tried, so the text is formatted only when read. It
// and the Unwrap chain read as fmt.Errorf's, with %q for quoted names
// and %w for err.
type planError struct {
	kind planErrKind
	name string // a capability or sub-problem
	port registry.Port
	t    registry.DataType
	err  error
}

func (e *planError) Error() string {
	switch e.kind {
	case errSubProblem:
		return "workflowscout: sub-problem " + strconv.Quote(e.name) + ": " + e.err.Error()
	case errInput:
		return "input " + strconv.Quote(e.port.Name) + " (" + string(e.port.Type) + ") of " + e.name + ": " + e.err.Error()
	case errNoProducer:
		return "no capability produces " + string(e.t)
	case errNoScalarPort:
		return "no producer exports scalar port " + strconv.Quote(e.port.Name) + " of type " + string(e.port.Type)
	case errNoEmit:
		return e.name + " does not emit " + string(e.t)
	default:
		return "chaining depth exceeded for " + string(e.t)
	}
}

func (e *planError) Unwrap() error { return e.err }
