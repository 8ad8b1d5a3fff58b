// Package registrycurator implements ArachNet's fourth agent:
// systematic registry evolution. It mines executed workflows for
// recurring capability chains, validates them (validation-first: only
// patterns that recur across successful, high-quality runs are
// promoted — speculative additions would bloat the registry), and
// promotes survivors as composite capabilities that future designs can
// reuse as single steps.
//
// A composite is plain data: the chain of primitives it stands for,
// with its head's input ports and its tail's outputs. A chain is lifted
// only when everything after the head follows from the head, so no
// literal is stored: WorkflowScout writes a run of steps that spells
// the chain as one step with the head's bindings, and workflow.Compile
// splices the chain back in. A curated plan runs the same steps, under
// the same step-cache keys, as the plan it abbreviates.
package registrycurator

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// Observation is one executed workflow with its outcome.
type Observation struct {
	Workflow *workflow.Workflow
	Result   *workflow.Result
	Err      error
}

// Succeeded reports whether the observation is usable evidence.
func (o Observation) Succeeded() bool {
	return o.Err == nil && o.Workflow != nil && o.Result != nil
}

// Promotion is one pattern promoted into the registry.
type Promotion struct {
	Capability registry.Capability
	// Pattern is the capability chain the composite encapsulates.
	Pattern []string
	// Support is the number of successful workflows exhibiting it.
	Support int
	// AvgQuality is the mean quality score across those workflows.
	AvgQuality float64
}

// Validation thresholds.
const (
	// minSupport is the minimum number of distinct successful
	// workflows a pattern must appear in.
	minSupport = 2
	// minQuality is the minimum average quality score.
	minQuality = 0.8
	// maxChain bounds the pattern length.
	maxChain = 4
)

// Agent is the RegistryCurator agent.
type Agent struct{}

// New returns a curator.
func New() *Agent { return &Agent{} }

// chainOccurrence is one liftable window inside one workflow.
type chainOccurrence struct {
	steps   []workflow.Step
	quality float64
}

// Curate mines the history and registers validated composites into
// reg. It returns the promotions performed. Already-promoted patterns
// (by composite name) are skipped, so curation is idempotent.
func (a *Agent) Curate(history []Observation, reg *registry.Registry) ([]Promotion, error) {
	// Gather liftable chains across successful observations.
	occurrences := map[string][]chainOccurrence{} // pattern key → occurrences
	perWorkflow := map[string]map[string]bool{}   // pattern key → workflow fingerprints
	for _, obs := range history {
		if !obs.Succeeded() {
			continue
		}
		q := obs.Result.QualityScore()
		wfID := fingerprint(obs.Workflow)
		for _, chain := range liftableChains(obs.Workflow, reg) {
			key := chainKey(chain)
			occurrences[key] = append(occurrences[key], chainOccurrence{steps: chain, quality: q})
			if perWorkflow[key] == nil {
				perWorkflow[key] = map[string]bool{}
			}
			perWorkflow[key][wfID] = true
		}
	}

	// Validate and promote. Patterns that end at a sub-problem artifact
	// (the step's Phase names a real sub-problem, not auto-chained glue)
	// are semantically complete capabilities and win first; then longer
	// patterns beat shorter ones.
	keys := make([]string, 0, len(occurrences))
	for k := range occurrences {
		keys = append(keys, k)
	}
	meaningful := func(k string) bool {
		steps := occurrences[k][0].steps
		phase := steps[len(steps)-1].Phase
		return phase != "" && phase != "auto"
	}
	sort.Slice(keys, func(i, j int) bool {
		mi, mj := meaningful(keys[i]), meaningful(keys[j])
		if mi != mj {
			return mi
		}
		li, lj := len(strings.Split(keys[i], "|")), len(strings.Split(keys[j], "|"))
		if li != lj {
			return li > lj
		}
		return keys[i] < keys[j]
	})

	var promotions []Promotion
	covered := map[string]bool{} // capability names already inside a promoted pattern
	for _, key := range keys {
		occ := occurrences[key]
		support := len(perWorkflow[key])
		if support < minSupport {
			continue
		}
		var q float64
		for _, o := range occ {
			q += o.quality
		}
		q /= float64(len(occ))
		if q < minQuality {
			continue
		}
		chain := occ[0].steps
		// Skip patterns overlapping an already-promoted, longer one.
		if slices.ContainsFunc(chain, func(s workflow.Step) bool { return covered[s.Capability] }) {
			continue
		}
		cap, err := composite(chain, reg)
		if err != nil {
			continue // not liftable after all (e.g. capability vanished)
		}
		// Covered even when promoted in an earlier pass, so sub-patterns
		// don't sneak in behind it.
		for _, s := range chain {
			covered[s.Capability] = true
		}
		if reg.Has(cap.Name) {
			continue
		}
		if err := reg.Register(cap); err != nil {
			return promotions, fmt.Errorf("registrycurator: promote %q: %w", cap.Name, err)
		}
		promotions = append(promotions, Promotion{
			Capability: cap,
			Pattern:    capNames(chain),
			Support:    support,
			AvgQuality: q,
		})
	}
	return promotions, nil
}

// liftableChains enumerates the contiguous windows of 2 to maxChain
// steps of wf that chainIsLiftable accepts.
func liftableChains(wf *workflow.Workflow, reg *registry.Registry) [][]workflow.Step {
	n := len(wf.Steps)
	caps := make([]*registry.Capability, n) // nil where unknown
	for i, s := range wf.Steps {
		caps[i], _ = reg.Get(s.Capability)
	}
	var out [][]workflow.Step
	for start := 0; start < n; start++ {
		for end := start + 2; end <= start+maxChain && end <= n; end++ {
			if chainIsLiftable(wf.Steps[start:end], caps[start:end]) {
				out = append(out, wf.Steps[start:end])
			}
		}
	}
	return out
}

// chainIsLiftable reports whether a window of steps, whose capabilities
// are caps, may become a composite: every step is a known primitive,
// and every step after the head binds every input of its capability,
// optional ones included, to an earlier step of the window. The chain
// then stores no literal, and all of it follows from the head's
// bindings.
func chainIsLiftable(win []workflow.Step, caps []*registry.Capability) bool {
	for i, s := range win {
		if caps[i] == nil || caps[i].Composite || i > 0 && len(s.Inputs) != len(caps[i].Inputs) {
			return false
		}
		for _, b := range s.Inputs {
			if i > 0 && chainIndex(win[:i], b.Ref) < 0 {
				return false
			}
		}
	}
	return true
}

// chainIndex returns the position in win of the step ref reads, or -1
// when ref is not a ref into win.
func chainIndex(win []workflow.Step, ref string) int {
	if ref == "" {
		return -1
	}
	id := workflow.RefStepID(ref)
	return slices.IndexFunc(win, func(s workflow.Step) bool { return s.ID == id })
}

func capNames(win []workflow.Step) []string {
	out := make([]string, len(win))
	for i, s := range win {
		out[i] = s.Capability
	}
	return out
}

func chainKey(win []workflow.Step) string {
	return strings.Join(capNames(win), "|")
}

func fingerprint(wf *workflow.Workflow) string {
	// Distinct queries over the same capability chain are distinct use
	// cases — the evidence the validation-first policy wants.
	return wf.Name + ":" + wf.Query + ":" + strings.Join(wf.CapabilityNames(), "|")
}

// composite lifts a liftable step chain into a composite capability:
// the head's input ports, the tail's outputs, and the chain as data.
func composite(chain []workflow.Step, reg *registry.Registry) (registry.Capability, error) {
	steps := make([]registry.ChainStep, len(chain))
	caps := make([]*registry.Capability, len(chain))
	for k, s := range chain {
		c, err := reg.Get(s.Capability)
		if err != nil {
			return registry.Capability{}, err
		}
		caps[k] = c
		steps[k].Capability = s.Capability
		if k == 0 {
			continue
		}
		steps[k].In = make(map[string]registry.ChainRef, len(s.Inputs))
		for name, b := range s.Inputs {
			steps[k].In[name] = registry.ChainRef{Step: chainIndex(chain[:k], b.Ref), Port: workflow.RefPort(b.Ref)}
		}
	}

	// Merge tags; mark composite.
	var tags, frameworks []string
	cost := 0
	for _, c := range caps {
		tags = append(tags, c.Tags...)
		if !slices.Contains(frameworks, c.Framework) {
			frameworks = append(frameworks, c.Framework)
		}
		cost += c.Cost
	}
	slices.Sort(tags)
	tags = append(slices.Compact(tags), "composite")
	if cost > 1 {
		cost-- // the promoted pattern amortizes integration overhead
	}

	desc := fmt.Sprintf("Validated pattern: %s (promoted from %d-step chain observed in successful workflows)",
		strings.Join(capNames(chain), " → "), len(chain))
	return registry.Capability{
		Name:        compositeName(chain),
		Framework:   "composite",
		Description: desc,
		Inputs:      slices.Clone(caps[0].Inputs),
		Outputs:     slices.Clone(caps[len(caps)-1].Outputs),
		Constraints: []string{fmt.Sprintf("spans frameworks: %s", strings.Join(frameworks, ", "))},
		Tags:        tags,
		Cost:        cost,
		Composite:   true,
		Chain:       steps,
	}, nil
}

// compositeName derives a stable, readable name from the chain's head
// and tail verbs.
func compositeName(chain []workflow.Step) string {
	headVerb := verbOf(chain[0].Capability)
	tailVerb := verbOf(chain[len(chain)-1].Capability)
	return fmt.Sprintf("composite.%s_to_%s_%d", headVerb, tailVerb, len(chain))
}

func verbOf(capName string) string {
	if i := strings.IndexByte(capName, '.'); i >= 0 {
		return capName[i+1:]
	}
	return capName
}
