// Package registry implements ArachNet's foundation: a curated catalog
// of measurement-tool capabilities described by what they do — typed
// inputs, typed outputs, constraints — never how they do it.
//
// The paper motivates this design directly: exposing entire codebases
// overwhelmed the agents with implementation detail, while a compact
// "measurement API" enables intelligent composition and scales linearly
// with the number of tools. Entries here carry an executable
// implementation so generated workflows can actually run, but agents
// only ever reason over the metadata.
package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// DataType names a value format flowing between capabilities. Types are
// namespaced strings (e.g. "cable.id", "impact.report") so that the
// workflow engine can check that producers and consumers agree.
type DataType string

// Core data types shared by the built-in frameworks.
const (
	TString      DataType = "scalar.string"
	TFloat       DataType = "scalar.float"
	TInt         DataType = "scalar.int"
	TBool        DataType = "scalar.bool"
	TStringList  DataType = "list.string"
	TCableID     DataType = "cable.id"
	TCableList   DataType = "cable.list"
	TCrossLayer  DataType = "cable.crosslayermap"
	TLinkSet     DataType = "link.set"
	TIPSet       DataType = "ip.set"
	TGeoTable    DataType = "geo.table"      // ip/link → country rows
	TImpact      DataType = "impact.report"  // country-level impact report
	TEventList   DataType = "event.list"     // disaster events
	TEventImpact DataType = "event.impact"   // per-event expectation impact
	TGlobal      DataType = "impact.global"  // combined multi-event impact
	TCascade     DataType = "cascade.report" // cable+AS cascade result
	TStress      DataType = "topo.stress"    // AS stress propagation result
	TBGPStream   DataType = "bgp.stream"     // update messages
	TBGPBursts   DataType = "bgp.bursts"     // detected bursts
	TTraceArch   DataType = "trace.archive"  // measurement archive
	TAnomaly     DataType = "trace.anomaly"  // latency anomaly finding
	TSuspects    DataType = "forensic.suspects"
	TVerdict     DataType = "forensic.verdict"
	TTimeline    DataType = "timeline.report" // unified cross-layer timeline
)

// Port is one named, typed input or output of a capability.
type Port struct {
	Name string   `json:"name"`
	Type DataType `json:"type"`
	Desc string   `json:"desc,omitempty"`
	// Optional marks inputs that may be left unbound.
	Optional bool `json:"optional,omitempty"`
}

// Call is the invocation context handed to a capability
// implementation: bound inputs, the output map to fill, the shared
// execution environment (opaque to this package), and the cancellation
// context of the run.
type Call struct {
	In  map[string]any
	Out map[string]any
	Env any
	// Ctx is the run's cancellation context. Long-running
	// implementations should honor it; composites propagate it into
	// their inner engine.
	Ctx context.Context
}

// Context returns the run's cancellation context, never nil.
func (c *Call) Context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Input fetches a bound input value or fails with a descriptive error.
func (c *Call) Input(name string) (any, error) {
	v, ok := c.In[name]
	if !ok {
		return nil, fmt.Errorf("registry: input %q not bound", name)
	}
	return v, nil
}

// Func is an executable capability implementation.
type Func func(*Call) error

// Capability is one registry entry.
type Capability struct {
	Name        string   `json:"name"`
	Framework   string   `json:"framework"`
	Description string   `json:"description"`
	Inputs      []Port   `json:"inputs,omitempty"`
	Outputs     []Port   `json:"outputs"`
	Constraints []string `json:"constraints,omitempty"`
	Tags        []string `json:"tags,omitempty"`
	// Cost is a coarse execution-cost estimate (1 cheap … 10 heavy),
	// used by WorkflowScout's trade-off scoring.
	Cost int `json:"cost"`
	// Composite marks capabilities promoted by RegistryCurator from
	// observed workflow patterns rather than hand-curated.
	Composite bool `json:"composite,omitempty"`
	// Pure declares the capability memoizable: given the same bound
	// inputs and the same execution environment it always produces the
	// same outputs and performs no externally visible side effects.
	// Engines may serve a pure step's outputs from a cross-call cache
	// instead of invoking Impl. Capabilities that read mutable external
	// state, are randomized, or mutate the environment must leave Pure
	// false (the default, which is always safe).
	Pure bool `json:"pure,omitempty"`
	// Reads names the environment facets a Pure capability consults
	// (beyond its bound inputs). Engines use it to scope a step's cache
	// fingerprint to just those facets, so mutating one facet (e.g.
	// injecting a new measurement scenario) dirties only the steps that
	// actually read it — the seam incremental re-execution builds on.
	// The facet vocabulary belongs to the environment implementation;
	// an empty list means "unknown: assume every facet" (the default,
	// which is always safe).
	Reads []string `json:"reads,omitempty"`

	Impl Func `json:"-"`
}

// HasTag reports whether the capability carries a tag.
func (c *Capability) HasTag(tag string) bool {
	for _, t := range c.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Produces reports whether the capability has an output of the type.
func (c *Capability) Produces(t DataType) bool {
	for _, p := range c.Outputs {
		if p.Type == t {
			return true
		}
	}
	return false
}

// InputPort finds an input port by name.
func (c *Capability) InputPort(name string) (Port, bool) {
	for _, p := range c.Inputs {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// OutputPort finds an output port by name.
func (c *Capability) OutputPort(name string) (Port, bool) {
	for _, p := range c.Outputs {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// ErrNotFound is returned when a capability is missing.
var ErrNotFound = errors.New("registry: capability not found")

// Registry is the capability catalog. It is safe for concurrent use:
// many planners read (Get, All, Producing, ...) while the curator
// promotes composites (Register). Capabilities are immutable once
// registered, so returned pointers may be shared freely.
type Registry struct {
	mu   sync.RWMutex
	caps map[string]*Capability
	// producers indexes caps by output type, each list in ascending
	// (cost, name) order. A list is replaced, never modified, once
	// stored, so Clone shares the lists and Producing copies one
	// outside the lock.
	producers map[DataType][]*Capability
	// gen counts successful registrations. Downstream caches key on it
	// so a curation promotion invalidates anything planned against the
	// smaller catalog.
	gen uint64
	// watchers are poked (non-blocking send) after every successful
	// Register, so standing queries learn about catalog growth without
	// polling Generation. See Watch.
	watchers []chan<- struct{}
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{caps: make(map[string]*Capability), producers: make(map[DataType][]*Capability)}
}

// Register validates and adds a capability. Registration fails on
// duplicate names, missing implementation, malformed ports or a
// missing framework.
func (r *Registry) Register(c Capability) error {
	if c.Name == "" || !strings.Contains(c.Name, ".") {
		return fmt.Errorf("registry: capability name %q must be framework-qualified (framework.verb)", c.Name)
	}
	if c.Framework == "" {
		return fmt.Errorf("registry: capability %q has no framework", c.Name)
	}
	if c.Impl == nil {
		return fmt.Errorf("registry: capability %q has no implementation", c.Name)
	}
	if c.Description == "" {
		return fmt.Errorf("registry: capability %q has no description", c.Name)
	}
	if len(c.Outputs) == 0 {
		return fmt.Errorf("registry: capability %q produces nothing", c.Name)
	}
	for _, ports := range [][]Port{c.Inputs, c.Outputs} {
		seen := map[string]bool{}
		for _, p := range ports {
			if p.Name == "" || p.Type == "" {
				return fmt.Errorf("registry: capability %q has unnamed or untyped port", c.Name)
			}
			if seen[p.Name] {
				return fmt.Errorf("registry: capability %q has duplicate port %q", c.Name, p.Name)
			}
			seen[p.Name] = true
		}
	}
	if c.Cost <= 0 {
		c.Cost = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.caps[c.Name]; dup {
		return fmt.Errorf("registry: capability %q already registered", c.Name)
	}
	cc := c
	r.caps[c.Name] = &cc
	r.indexProducer(&cc)
	r.gen++
	for _, ch := range r.watchers {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a pending poke
		}
	}
	return nil
}

// Watch registers ch to be poked — a non-blocking send of one empty
// struct — after every successful Register. A buffered channel of
// capacity 1 coalesces bursts of registrations into one wake-up; the
// watcher re-reads Generation to decide what changed. Watchers are
// per-instance: Clone and Subset never inherit them.
func (r *Registry) Watch(ch chan<- struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.watchers = append(r.watchers, ch)
}

// Unwatch removes a channel registered with Watch. Unknown channels
// are ignored.
func (r *Registry) Unwatch(ch chan<- struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, w := range r.watchers {
		if w == ch {
			r.watchers = append(r.watchers[:i], r.watchers[i+1:]...)
			return
		}
	}
}

// Generation returns a monotonic counter bumped by every successful
// Register. Because capabilities are immutable and never removed, two
// reads returning the same generation bracket an unchanged catalog —
// plan caches key on it to stay coherent while the curator promotes
// composites concurrently. Clone preserves the source's generation
// (same catalog contents); Subset starts from zero and ends at the
// number of capabilities copied, like any freshly built registry.
func (r *Registry) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// MustRegister panics on registration failure; for built-in catalogs
// whose validity is a program invariant.
func (r *Registry) MustRegister(c Capability) {
	if err := r.Register(c); err != nil {
		panic(err)
	}
}

// Get returns a capability by name.
func (r *Registry) Get(name string) (*Capability, error) {
	r.mu.RLock()
	c, ok := r.caps[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return c, nil
}

// Has reports whether a capability exists.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.caps[name]
	return ok
}

// Size returns the number of registered capabilities.
func (r *Registry) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.caps)
}

// All returns every capability sorted by name.
func (r *Registry) All() []*Capability {
	r.mu.RLock()
	out := make([]*Capability, 0, len(r.caps))
	for _, c := range r.caps {
		out = append(out, c)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByFramework returns the capabilities of one framework, sorted.
func (r *Registry) ByFramework(fw string) []*Capability {
	var out []*Capability
	for _, c := range r.All() {
		if c.Framework == fw {
			out = append(out, c)
		}
	}
	return out
}

// ByTag returns capabilities carrying a tag, sorted by name.
func (r *Registry) ByTag(tag string) []*Capability {
	var out []*Capability
	for _, c := range r.All() {
		if c.HasTag(tag) {
			out = append(out, c)
		}
	}
	return out
}

// Producing returns capabilities with an output of the given type,
// sorted by ascending cost then name — the order WorkflowScout explores
// — or nil when none has one. It reads a per-type index that Register
// keeps in that order, and returns a fresh slice the caller may sort or
// append to.
func (r *Registry) Producing(t DataType) []*Capability {
	r.mu.RLock()
	list := r.producers[t]
	r.mu.RUnlock()
	return append([]*Capability(nil), list...)
}

// indexProducer adds c to the producer list of each type it outputs,
// once per type, keeping (cost, name) order. It stores a new list
// rather than inserting into the old one, which a Clone may share.
// The caller holds r.mu for writing or owns r exclusively.
func (r *Registry) indexProducer(c *Capability) {
	for i, p := range c.Outputs {
		if slices.ContainsFunc(c.Outputs[:i], func(q Port) bool { return q.Type == p.Type }) {
			continue
		}
		old := r.producers[p.Type]
		at := sort.Search(len(old), func(j int) bool {
			if old[j].Cost != c.Cost {
				return c.Cost < old[j].Cost
			}
			return c.Name < old[j].Name
		})
		list := make([]*Capability, 0, len(old)+1)
		list = append(list, old[:at]...)
		list = append(list, c)
		r.producers[p.Type] = append(list, old[at:]...)
	}
}

// Frameworks lists the distinct frameworks present, sorted.
func (r *Registry) Frameworks() []string {
	set := map[string]bool{}
	for _, c := range r.All() {
		set[c.Framework] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Subset returns a new registry holding only the named capabilities.
// Unknown names are reported as an error. Used by evaluation setups
// that restrict the agent to "core Nautilus functions only".
//
// The subset shares the source's *Capability pointers rather than
// copying the structs: capabilities are immutable once registered, so
// a handle resolved from the parent, a Clone, or a Subset is the same
// pointer — which is what lets compiled plans hold capability pointers
// across registry views. Entries were validated when first registered,
// so only name resolution and duplicate screening happen here. Like
// any freshly built registry, the subset's generation counts its own
// registrations (len(names)).
func (r *Registry) Subset(names ...string) (*Registry, error) {
	sub := New()
	for _, n := range names {
		c, err := r.Get(n)
		if err != nil {
			return nil, err
		}
		if _, dup := sub.caps[c.Name]; dup {
			return nil, fmt.Errorf("registry: capability %q already registered", c.Name)
		}
		sub.caps[c.Name] = c
		sub.indexProducer(c)
		sub.gen++
	}
	return sub, nil
}

// Clone returns an independent registry with the same contents.
// Capabilities are immutable once registered, so the clone shares the
// source's *Capability pointers (implementations were always shared
// function values); future Registers on either side stay local to it.
// The clone inherits the source's generation: its contents are
// identical, so caches keyed on (catalog, generation) remain coherent
// across the copy, and compiled plans resolved against the source hold
// pointers that are valid verbatim in the clone.
func (r *Registry) Clone() *Registry {
	out := New()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.caps {
		out.caps[c.Name] = c
	}
	for t, list := range r.producers {
		out.producers[t] = list
	}
	out.gen = r.gen
	return out
}

// MarshalJSON serializes the catalog metadata (without implementations)
// as a deterministic JSON array. This is the registry document an LLM
// agent would be prompted with.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(r.All(), "", "  ")
}
