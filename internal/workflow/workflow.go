// Package workflow implements ArachNet's executable workflow model: a
// typed DAG of capability invocations with static validation, an
// execution engine with provenance recording, and the quality-check
// machinery SolutionWeaver weaves into generated solutions.
//
// The engine has one scheduler. Compile validates a Workflow and
// lowers it into a CompiledPlan; Engine.RunCompiled executes that
// plan, and Engine.Run is Compile followed by RunCompiled. Observers
// are passed per run, so one Engine serves observed and unobserved
// runs alike. Compile splices a composite capability's chain in place
// of every step that names it, so the steps inside a composite are
// cached, dispatched and observed like any other.
//
// A step's Inputs are a slice sorted by input name, each name once.
// Validate rejects any other order with ErrInputOrder, so fingerprints,
// Compile and anything else that reads the bindings in name order
// reads the slice as it is; Inputs.Get looks one up. In JSON the
// bindings are the object a map[string]Binding of them renders.
//
// # Step memoization
//
// An Engine built WithCache consults a Cache before executing each
// step whose result is provably reusable, and stores the outputs of
// such steps after they run. Reusability is decided per step from a
// deterministic fingerprint of the computation, not of the values
// flowing through it: a step is fingerprintable when its capability is
// registry.Pure, every literal input canonicalizes deterministically,
// and every referenced producer step is itself fingerprintable. The
// fingerprint hashes the capability name, the engine's environment
// fingerprint, each literal input's canonical encoding, and — for
// reference inputs — the producing step's fingerprint plus the port
// read. Two steps with equal fingerprints therefore denote the same
// pure computation over the same environment, so the cached output map
// may be served verbatim; impure steps (and anything downstream of
// them) always execute. Cache hits still fire Observer callbacks, with
// StepStat.Cached set. A compiled plan whose every step the cache
// served with the same output maps as before returns the Result it
// memoized then, so a Result is shared and read-only.
//
// WithEnvKeyer turns this into incremental re-execution: when the
// environment fingerprint is scoped per capability to the facets it
// actually reads, mutating one facet leaves every other step's
// fingerprint intact, so a re-run after the mutation executes only the
// dirty subgraph (the facet's readers and, via fingerprint chaining,
// their downstreams) and replays the rest from cache.
package workflow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"arachnet/internal/registry"
)

// Binding wires one input port of a step to either a literal value or
// to an output of an earlier step (Ref in "stepID.port" form). Exactly
// one of the two must be set.
type Binding struct {
	Literal any    `json:"literal,omitempty"`
	Ref     string `json:"ref,omitempty"`
}

// IsRef reports whether the binding references another step's output.
func (b Binding) IsRef() bool { return b.Ref != "" }

// Validate rejects ambiguous bindings that set both a literal value
// and a reference.
func (b Binding) Validate() error {
	if b.Ref != "" && b.Literal != nil {
		return fmt.Errorf("%w: literal %v vs ref %q", ErrAmbiguousBinding, b.Literal, b.Ref)
	}
	return nil
}

// Lit makes a literal binding.
func Lit(v any) Binding { return Binding{Literal: v} }

// Ref makes a reference binding to step "id" output "port".
func Ref(id, port string) Binding { return Binding{Ref: id + "." + port} }

// Input binds the input port Name of a step.
type Input struct {
	Name string
	Binding
}

// Inputs are a step's bindings sorted by name, each name once;
// Validate rejects any other order with ErrInputOrder. Fingerprints,
// Compile and the generated listing read them in this order, so none
// of them sorts. Look a binding up with Get.
type Inputs []Input

// Get returns the binding of the input named name.
func (in Inputs) Get(name string) (Binding, bool) {
	for _, x := range in {
		if x.Name == name {
			return x.Binding, true
		}
	}
	return Binding{}, false
}

// MarshalJSON writes in as encoding/json writes a map[string]Binding
// of the same bindings: an object keyed by name in name order, or null
// for nil Inputs. It escapes no HTML, so the encoder that calls it
// applies its own setting, as it would to the map.
func (in Inputs) MarshalJSON() ([]byte, error) {
	if in == nil {
		return []byte("null"), nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	buf.WriteByte('{')
	for i := range in {
		if i > 0 {
			buf.WriteByte(',')
		}
		// Encode ends each value with a newline, which is dropped.
		if err := enc.Encode(in[i].Name); err != nil {
			return nil, err
		}
		buf.Truncate(buf.Len() - 1)
		buf.WriteByte(':')
		if err := enc.Encode(in[i].Binding); err != nil {
			return nil, err
		}
		buf.Truncate(buf.Len() - 1)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// Step is one capability invocation inside a workflow.
type Step struct {
	ID         string `json:"id"`
	Capability string `json:"capability"`
	Inputs     Inputs `json:"inputs,omitempty"`
	// Phase labels the step for reporting ("mapping", "impact",
	// "temporal", "synthesis", ...).
	Phase string `json:"phase,omitempty"`
	// Note is a free-form design annotation carried into generated code.
	Note string `json:"note,omitempty"`
	// Affinity places the step for distributed execution. Empty (the
	// default) lets an engine Dispatcher take the step if it knows how;
	// AffinityCoordinator pins it to the coordinator process.
	Affinity string `json:"affinity,omitempty"`
}

// AffinityCoordinator pins a step to the coordinator: it is never
// offered to a Dispatcher even when its capability is pure.
const AffinityCoordinator = "coordinator"

// QualityKind classifies embedded quality checks.
type QualityKind string

// Quality-check kinds, mirroring the paper's SolutionWeaver description:
// consistency verification across data sources, sanity checking of
// results, and uncertainty quantification.
const (
	CheckConsistency QualityKind = "consistency"
	CheckSanity      QualityKind = "sanity"
	CheckUncertainty QualityKind = "uncertainty"
)

// QualityCheck is a non-fatal assertion over a produced value.
type QualityCheck struct {
	Name string      `json:"name"`
	Kind QualityKind `json:"kind"`
	Ref  string      `json:"ref"` // "stepID.port" to inspect
	// Assert is executable and never serialized. It must be a pure
	// function of v: a replay that returns a plan's memoized Result
	// (see Engine.RunCompiled) reports the outcome of an earlier call
	// instead of calling it again.
	Assert func(v any) (ok bool, note string) `json:"-"`
}

// Workflow is an ordered list of steps; references must point backward,
// which makes the graph acyclic by construction.
type Workflow struct {
	Name    string            `json:"name"`
	Query   string            `json:"query,omitempty"`
	Steps   []Step            `json:"steps"`
	Outputs map[string]string `json:"outputs,omitempty"` // result name → "stepID.port"
	Checks  []QualityCheck    `json:"checks,omitempty"`
}

// Frameworks returns the distinct frameworks the workflow touches,
// sorted — the integration-breadth metric the paper reports per case
// study.
func (w *Workflow) Frameworks(reg *registry.Registry) []string {
	set := map[string]bool{}
	for _, s := range w.Steps {
		if c, err := reg.Get(s.Capability); err == nil {
			set[c.Framework] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// CapabilityNames returns the capability of each step in order.
func (w *Workflow) CapabilityNames() []string {
	out := make([]string, len(w.Steps))
	for i, s := range w.Steps {
		out[i] = s.Capability
	}
	return out
}

// Validation errors.
var (
	ErrEmptyWorkflow    = errors.New("workflow: no steps")
	ErrUnknownCap       = errors.New("workflow: unknown capability")
	ErrBadRef           = errors.New("workflow: unresolved reference")
	ErrTypeMismatch     = errors.New("workflow: type mismatch")
	ErrUnboundInput     = errors.New("workflow: required input unbound")
	ErrDuplicateStep    = errors.New("workflow: duplicate step id")
	ErrAmbiguousBinding = errors.New("workflow: binding sets both literal and ref")
	ErrInputOrder       = errors.New("workflow: inputs not in strictly increasing name order")
)

// StepError is the typed failure of one workflow step. It wraps the
// capability's error (or a contract violation) so callers can pick the
// failing step out of a pipeline error chain with errors.As.
type StepError struct {
	Step       string
	Capability string
	Err        error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("workflow: step %q (%s): %v", e.Step, e.Capability, e.Err)
}

func (e *StepError) Unwrap() error { return e.Err }

// Validate statically checks the workflow against a registry: every
// step's inputs sorted by unique name, step IDs unique, capabilities
// known, every required input bound, references resolving to earlier
// steps with matching port types, and declared outputs resolvable.
func (w *Workflow) Validate(reg *registry.Registry) error {
	// Neither table outlives the call: at the usual plan sizes (up to 8
	// steps) both live on the stack, and Validate allocates nothing.
	var buf [16]*registry.Capability
	caps := buf[:]
	if len(w.Steps) > len(buf) {
		caps = make([]*registry.Capability, len(w.Steps))
	}
	return w.validate(reg, make(map[string]int, len(w.Steps)), caps[:len(w.Steps)])
}

// validate is Validate that also records, for Compile to keep, each
// step's position by ID in index and each step's capability in caps,
// which has one entry per step. A ref "stepID.port" resolves through
// index to an earlier step and through that step's capability to the
// port's type, so no table of produced refs is built.
func (w *Workflow) validate(reg *registry.Registry, index map[string]int, caps []*registry.Capability) error {
	if len(w.Steps) == 0 {
		return ErrEmptyWorkflow
	}
	// The order is checked first, so that every check below, and
	// Compile after it, may read the inputs in name order.
	for i := range w.Steps {
		s := &w.Steps[i]
		for k := 1; k < len(s.Inputs); k++ {
			if s.Inputs[k].Name <= s.Inputs[k-1].Name {
				return fmt.Errorf("%w: step %q binds %q after %q", ErrInputOrder, s.ID, s.Inputs[k].Name, s.Inputs[k-1].Name)
			}
		}
	}
	for i := range w.Steps {
		s := &w.Steps[i]
		if s.ID == "" {
			return fmt.Errorf("workflow: step %d has empty id", i)
		}
		// Refs are "stepID.port"; a dot inside the ID would make them
		// ambiguous and corrupt the engine's dependency graph.
		if strings.Contains(s.ID, ".") {
			return fmt.Errorf("workflow: step id %q must not contain '.'", s.ID)
		}
		if _, dup := index[s.ID]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateStep, s.ID)
		}
		index[s.ID] = i
		capb, err := reg.Get(s.Capability)
		if err != nil {
			return fmt.Errorf("%w: step %q wants %q", ErrUnknownCap, s.ID, s.Capability)
		}
		caps[i] = capb
		bound := 0
		for _, in := range capb.Inputs {
			b, ok := s.Inputs.Get(in.Name)
			if !ok {
				if in.Optional {
					continue
				}
				return fmt.Errorf("%w: step %q input %q", ErrUnboundInput, s.ID, in.Name)
			}
			bound++
			if err := b.Validate(); err != nil {
				return fmt.Errorf("step %q input %q: %w", s.ID, in.Name, err)
			}
			if b.IsRef() {
				srcType, ok := refType(b.Ref, i, index, caps)
				if !ok {
					return fmt.Errorf("%w: step %q input %q references %q", ErrBadRef, s.ID, in.Name, b.Ref)
				}
				if srcType != in.Type {
					return fmt.Errorf("%w: step %q input %q wants %s, ref %q provides %s",
						ErrTypeMismatch, s.ID, in.Name, in.Type, b.Ref, srcType)
				}
			}
		}
		// Unknown extra bindings are an authoring bug. Port names are
		// unique, so there is one exactly when not every binding
		// matched a port above.
		if bound != len(s.Inputs) {
			for _, x := range s.Inputs {
				if _, ok := capb.InputPort(x.Name); !ok {
					return fmt.Errorf("workflow: step %q binds unknown input %q of %q", s.ID, x.Name, s.Capability)
				}
			}
		}
	}
	for name, ref := range w.Outputs {
		if _, ok := refType(ref, len(w.Steps), index, caps); !ok {
			return fmt.Errorf("%w: workflow output %q references %q", ErrBadRef, name, ref)
		}
	}
	for _, chk := range w.Checks {
		if _, ok := refType(chk.Ref, len(w.Steps), index, caps); !ok {
			return fmt.Errorf("%w: quality check %q references %q", ErrBadRef, chk.Name, chk.Ref)
		}
		if chk.Assert == nil {
			return fmt.Errorf("workflow: quality check %q has no assertion", chk.Name)
		}
	}
	return nil
}

// refType resolves ref, "stepID.port", to the port's type when stepID
// names a step at an index below before and port is an output of that
// step's capability. Step IDs hold no '.', so the ID ends at the ref's
// first one.
func refType(ref string, before int, index map[string]int, caps []*registry.Capability) (registry.DataType, bool) {
	dot := strings.IndexByte(ref, '.')
	if dot < 0 {
		return "", false
	}
	j, ok := index[ref[:dot]]
	if !ok || j >= before {
		return "", false
	}
	port, ok := caps[j].OutputPort(ref[dot+1:])
	return port.Type, ok
}

// StepStat records one executed step.
type StepStat struct {
	ID         string        `json:"id"`
	Capability string        `json:"capability"`
	Duration   time.Duration `json:"duration,omitempty"`
	// Err is surfaced through the run's error chain; serializers carry
	// its text separately.
	Err error `json:"-"`
	// Cached marks a step whose outputs were served from the engine's
	// Cache instead of invoking the capability.
	Cached bool `json:"cached,omitempty"`
	// Remote marks a step executed by a Dispatcher (worker fleet)
	// rather than inline by the engine.
	Remote bool `json:"remote,omitempty"`
}

// CheckResult records one evaluated quality check.
type CheckResult struct {
	Name   string      `json:"name"`
	Kind   QualityKind `json:"kind"`
	Passed bool        `json:"passed"`
	Note   string      `json:"note,omitempty"`
}

// Result is the outcome of a workflow run. It is read-only once
// RunCompiled returns it: a fully cached replay may return the Result
// of an earlier replay of the same compiled plan, so one Result can be
// shared by many runs and callers.
type Result struct {
	// Values holds every produced "stepID.port" value.
	Values map[string]any `json:"values,omitempty"`
	// Outputs resolves the workflow's declared outputs by name.
	Outputs map[string]any `json:"outputs,omitempty"`
	// Steps records per-step execution stats in order.
	Steps []StepStat `json:"steps,omitempty"`
	// Checks records quality-check outcomes in order.
	Checks []CheckResult `json:"checks,omitempty"`
	// Provenance is a human-readable execution trace.
	Provenance []string `json:"provenance,omitempty"`
}

// QualityScore returns the fraction of passed checks (1 when none).
func (r *Result) QualityScore() float64 {
	if len(r.Checks) == 0 {
		return 1
	}
	passed := 0
	for _, c := range r.Checks {
		if c.Passed {
			passed++
		}
	}
	return float64(passed) / float64(len(r.Checks))
}

// Observer watches per-step execution of one RunCompiled call:
// StepStarted fires as a step is handed to a worker, StepFinished when
// it reports back (a non-nil StepStat.Err marks failure, including
// output-contract violations). Both methods are invoked from the run's
// scheduler goroutine, so calls within one run are serialized; an
// Observer shared across concurrent runs must be safe for concurrent
// use. Observers watch — they cannot veto. To abort a run from an
// observer, cancel the run's context.
type Observer interface {
	StepStarted(id, capability string)
	StepFinished(stat StepStat)
}

// Cache memoizes step results across runs. Keys are the deterministic
// step fingerprints described in the package documentation; values are
// the output maps pure capabilities produced for that fingerprint.
// Implementations must be safe for concurrent use, and callers must
// treat stored output maps (and the values inside them) as immutable —
// one map may be shared by many runs. A Cache is free to drop entries
// at any time (Get simply misses), so it can be size-bounded.
type Cache interface {
	// Get returns the cached output map for a step fingerprint.
	Get(key string) (map[string]any, bool)
	// Put stores the output map a step produced under its fingerprint.
	Put(key string, outputs map[string]any)
}

// Dispatcher routes a step to remote execution — a worker fleet, a
// shard owner, anything on the far side of a transport. The engine
// offers every pure step whose Affinity is not AffinityCoordinator;
// the dispatcher either handles it (handled=true, returning the
// complete output map or an execution error) or declines
// (handled=false), in which case the engine runs the capability
// locally. fingerprint is the step's deterministic cache key so remote
// workers can keep their own result caches; it is "" when the step is
// not memoizable, and also when the engine has no cache, so an
// uncached run never reads a worker's cache either. Implementations
// must be safe for concurrent use and must return output maps the
// caller may treat as immutable.
type Dispatcher interface {
	DispatchStep(ctx context.Context, capb *registry.Capability, in map[string]any, env any, fingerprint string) (out map[string]any, handled bool, err error)
}

// Engine executes validated workflows against a registry and a shared
// environment value passed to every capability call. Steps whose
// inputs do not depend on each other run concurrently, bounded by the
// engine's parallelism; the dependency graph is derived from Ref
// bindings. An Engine is stateless and safe for concurrent runs; each
// run brings its own Observer.
type Engine struct {
	reg         *registry.Registry
	env         any
	parallelism int
	cache       Cache
	envFP       string
	envKeyer    func(*registry.Capability) string
	dispatcher  Dispatcher
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithParallelism bounds how many independent steps run concurrently
// (default GOMAXPROCS; values below 1 mean sequential execution).
func WithParallelism(n int) EngineOption {
	return func(e *Engine) { e.parallelism = n }
}

// WithCache memoizes pure steps through c. envFingerprint must
// uniquely identify the execution environment the engine runs against:
// it is mixed into every step fingerprint, so results computed over
// one environment are never served to another. A nil cache disables
// memoization (the default).
func WithCache(c Cache, envFingerprint string) EngineOption {
	return func(e *Engine) {
		e.cache = c
		e.envFP = envFingerprint
	}
}

// WithEnvKeyer refines WithCache's single environment fingerprint into
// a per-capability one: keyer is consulted for each step's capability
// and its return value replaces the engine-wide fingerprint in that
// step's cache key. This is the dirty-set seam incremental
// re-execution builds on — a keyer that scopes the fingerprint to the
// environment facets a capability Reads keeps the keys of unaffected
// steps stable across an environment mutation, so only steps whose own
// environment view (or an upstream's) changed get fresh fingerprints
// and actually run; everything else replays from cache. Dirtiness
// propagates automatically because each step's fingerprint chains its
// upstreams'. A keyer returning "" for a capability falls back to the
// WithCache fingerprint. Ignored without a cache.
func WithEnvKeyer(keyer func(*registry.Capability) string) EngineOption {
	return func(e *Engine) { e.envKeyer = keyer }
}

// WithDispatcher offers pure, coordinator-unpinned steps to d before
// running them locally. The engine still owns scheduling, caching, and
// contract verification; the dispatcher only decides *where* a step's
// capability executes. A nil dispatcher keeps everything local (the
// default).
func WithDispatcher(d Dispatcher) EngineOption {
	return func(e *Engine) { e.dispatcher = d }
}

// NewEngine builds an engine.
func NewEngine(reg *registry.Registry, env any, opts ...EngineOption) *Engine {
	e := &Engine{reg: reg, env: env, parallelism: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(e)
	}
	if e.parallelism < 1 {
		e.parallelism = 1
	}
	return e
}

// appendCanonical appends a literal input's deterministic encoding to
// b. Scalars are encoded directly; everything else round-trips through
// encoding/json, whose map-key ordering and struct-field ordering are
// stable. Values JSON cannot represent (functions, channels, cyclic
// graphs) make the step non-memoizable rather than silently colliding.
func appendCanonical(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, 'z'), nil
	case string:
		return append(append(b, 's'), x...), nil
	case bool:
		return strconv.AppendBool(append(b, 'b'), x), nil
	case int:
		return strconv.AppendInt(append(b, 'i'), int64(x), 10), nil
	case int64:
		return strconv.AppendInt(append(b, 'i'), x, 10), nil
	case float64:
		return strconv.AppendFloat(append(b, 'f'), x, 'g', -1, 64), nil
	}
	j, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(append(b, 'j'), j...), nil
}

// Run validates, compiles and executes the workflow without an
// observer: Compile followed by RunCompiled. A workflow that fails
// validation returns Compile's error and runs nothing. Callers that
// replay one workflow repeatedly should Compile it once instead.
func (e *Engine) Run(ctx context.Context, w *Workflow) (*Result, error) {
	cp, err := Compile(w, e.reg)
	if err != nil {
		return nil, err
	}
	return e.RunCompiled(ctx, cp, nil)
}

// safeCall invokes a capability with panic containment: a panicking
// implementation fails its step, not the process serving every other
// caller.
func (e *Engine) safeCall(capb *registry.Capability, call *registry.Call) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("capability panicked: %v", r)
		}
	}()
	return capb.Impl(call)
}

// RefStepID extracts the producing step ID from a "stepID.port" ref.
// This is the one parser of the ref wire format; planners and tests
// share it rather than re-splitting refs themselves.
func RefStepID(ref string) string {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[:i]
	}
	return ref
}

// RefPort extracts the port name from a "stepID.port" ref, or "" when
// the ref names a whole step.
func RefPort(ref string) string {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[i+1:]
	}
	return ""
}

// Describe renders a compact human-readable plan of the workflow.
func (w *Workflow) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %q (%d steps)\n", w.Name, len(w.Steps))
	for i, s := range w.Steps {
		fmt.Fprintf(&b, "  %2d. [%s] %s", i+1, s.ID, s.Capability)
		if s.Phase != "" {
			fmt.Fprintf(&b, "  phase=%s", s.Phase)
		}
		b.WriteByte('\n')
		for _, x := range s.Inputs {
			if x.IsRef() {
				fmt.Fprintf(&b, "        %s ← %s\n", x.Name, x.Ref)
			} else {
				fmt.Fprintf(&b, "        %s = %v\n", x.Name, x.Literal)
			}
		}
	}
	if len(w.Outputs) > 0 {
		names := make([]string, 0, len(w.Outputs))
		for n := range w.Outputs {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  outputs:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "        %s ← %s\n", n, w.Outputs[n])
		}
	}
	return b.String()
}
