package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/fleet"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// Stage names, in pipeline order. The first four are passed to
// expert-mode review hooks; all five label PipelineError.Stage
// (curation failures are reported, not reviewed).
const (
	StageProblem  = "querymind"
	StageDesign   = "workflowscout"
	StageSolution = "solutionweaver"
	StageResult   = "execution"
	StageCuration = "registrycurator"
)

// ReviewHook inspects (and may veto) the artifact leaving each of the
// four pipeline stages when a call runs in expert mode. Returning an
// error aborts the pipeline.
type ReviewHook func(stage string, artifact any) error

// askConfig collects per-call serving parameters.
type askConfig struct {
	observers   []Observer
	curate      bool
	timeout     time.Duration
	parallelism int
	noCache     bool
}

// AskOption configures one Ask, AskStream, AskBatch or Submit call.
// Options are per-call: a single shared System serves expert-reviewed,
// curation-free, and deadline-bound requests side by side. An option
// takes the configuration by value and returns it changed, so a call's
// configuration stays on its stack.
type AskOption func(askConfig) askConfig

// AskExpert runs the call in expert mode: hook reviews the artifact
// leaving each of the four pipeline stages (problem, design, solution,
// result) and may veto it. Expert review is implemented as an ordinary
// event observer — AskExpert(h) is AskObserver over the
// stage-completion events.
func AskExpert(hook ReviewHook) AskOption {
	if hook == nil {
		return func(c askConfig) askConfig { return c }
	}
	return AskObserver(expertReviewer(hook))
}

// AskObserver attaches an event observer to the call. Observers see
// every event of the run (stages, steps, curation, Done) and may veto
// the pipeline by returning an error. Multiple observers fire in
// attachment order. Within one run, calls are serialized on the
// pipeline's goroutine; an observer passed to AskBatch is shared by
// the pool's workers and must be safe for concurrent use.
func AskObserver(obs Observer) AskOption {
	return func(c askConfig) askConfig {
		if obs != nil {
			c.observers = append(c.observers, obs)
		}
		return c
	}
}

// AskWithoutCuration disables post-run registry evolution for this
// call (curation is on by default).
func AskWithoutCuration() AskOption {
	return func(c askConfig) askConfig {
		c.curate = false
		return c
	}
}

// AskNoCache bypasses the System's memoization for this call: the
// plan cache is neither consulted nor populated and every workflow
// step executes even if a cached result exists. Use it to force fresh
// numbers (benchmark cold paths, A/B-ing a promotion) or when a
// capability outside the builtin catalog is registered Pure but the
// caller knows its inputs don't capture everything that matters.
func AskNoCache() AskOption {
	return func(c askConfig) askConfig {
		c.noCache = true
		return c
	}
}

// AskTimeout bounds the call's wall-clock time, on top of whatever
// deadline the caller's context already carries. Non-positive
// durations are explicitly ignored — the call runs unbounded — rather
// than arming an already-expired deadline. For Submit the budget
// covers pipeline execution, not time spent queued.
func AskTimeout(d time.Duration) AskOption {
	return func(c askConfig) askConfig {
		if d > 0 {
			c.timeout = d
		}
		return c
	}
}

// AskParallelism bounds concurrency: how many independent workflow
// steps an Ask executes at once, and for AskBatch the total budget —
// divided between concurrent queries and their steps. Default
// GOMAXPROCS; values below 1 are explicitly ignored and the default
// applies.
func AskParallelism(n int) AskOption {
	return func(c askConfig) askConfig {
		if n > 0 {
			c.parallelism = n
		}
		return c
	}
}

func newAskConfig(opts []AskOption) askConfig {
	cfg := askConfig{curate: true, parallelism: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		cfg = opt(cfg)
	}
	return cfg
}

// System is the assembled ArachNet pipeline over one environment and
// registry. A System is safe for concurrent use: any number of
// goroutines may Ask at once, while the curator evolves the shared
// registry behind its write lock.
type System struct {
	env *Environment
	reg *registry.Registry

	queryMind *querymind.Agent
	scout     *workflowscout.Agent
	weaver    *solutionweaver.Agent
	curator   *registrycurator.Agent

	mu         sync.Mutex // guards history and promotions
	history    []registrycurator.Observation
	promotions []registrycurator.Promotion

	curateMu sync.Mutex // serializes curation passes
	// curatedThrough is the history length the last curation pass saw
	// (guarded by mu); a pass with nothing new is skipped.
	curatedThrough int

	// jobs is the async serving subsystem (see jobs.go) and the
	// scheduler admission-controlled runs take their slots from.
	jobs jobTable

	// subs indexes live standing queries (see subscribe.go).
	subs subTable

	// planCache memoizes the planning half of the pipeline (QueryMind →
	// WorkflowScout → SolutionWeaver) keyed by normalized query,
	// registry generation and environment fingerprint; stepCache
	// memoizes pure capability executions across runs (see cache.go).
	// Both are shared by every serving surface.
	planCache *lruCache
	stepCache *lruCache

	// fleet, when set, dispatches pure shard-partitionable steps to a
	// sharded worker pool instead of running them inline (see
	// internal/fleet and scatter.go). Guarded by fleetMu so SetFleet
	// is safe concurrently with serving.
	fleetMu sync.RWMutex
	fleet   *fleet.Fleet

	// engineSlot caches the last memoizing engine: engines are
	// stateless, safe for concurrent runs and take observers per run,
	// so every cached run with the same (environment epoch, fleet,
	// parallelism) — plain, observed, streamed or submitted — shares
	// one instead of re-assembling options and closures per call.
	engineSlot atomic.Pointer[engineSlot]
}

// engineSlot is one memoized engine and the key it was built under.
type engineSlot struct {
	ep    *envEpoch
	fleet *fleet.Fleet
	par   int
	eng   *workflow.Engine
}

// maxHistory bounds the observation window curation mines. Patterns
// need support 2 to promote, so recurring shapes are caught long
// before the window slides; the bound keeps per-call curation cost
// flat in long-lived serving processes.
const maxHistory = 512

// historySlack delays trimming until the window overshoots by this
// much, so the O(maxHistory) copy is amortized across many calls
// instead of paid on every Ask of a saturated server — this keeps the
// warm (fully cached) serving path cheap.
const historySlack = 64

// NewSystem assembles a pipeline. A nil registry uses the full builtin
// catalog.
func NewSystem(env *Environment, reg *registry.Registry) (*System, error) {
	if env == nil {
		return nil, fmt.Errorf("core: nil environment")
	}
	if reg == nil {
		reg = BuiltinRegistry()
	}
	return &System{
		env: env, reg: reg,
		queryMind: querymind.New(),
		scout:     workflowscout.New(),
		weaver:    solutionweaver.New(),
		curator:   registrycurator.New(),
		planCache: newLRUCache(DefaultPlanCacheEntries, 0),
		stepCache: newLRUCache(DefaultStepCacheEntries, DefaultStepCacheBytes),
	}, nil
}

// SetCacheLimits rebounds the System's memoization: planEntries bounds
// the plan cache, stepEntries and stepBytes the step cache. A
// non-positive entry bound disables that cache (and flushes it); a
// non-positive stepBytes leaves the step cache bounded by entries
// only. It may be called at any time — shrinking evicts immediately
// and in-flight runs simply miss.
func (s *System) SetCacheLimits(planEntries, stepEntries int, stepBytes int64) {
	s.planCache.SetLimits(planEntries, 0)
	s.stepCache.SetLimits(stepEntries, stepBytes)
}

// CacheStats snapshots hit/miss/eviction counters and current
// footprint for the plan and step caches, plus — when a fleet is
// attached — its dispatch, shard-inventory and wire counters.
func (s *System) CacheStats() CacheStats {
	st := CacheStats{
		Plan: s.planCache.Counters(),
		Step: s.stepCache.Counters(),
	}
	if f := s.Fleet(); f != nil {
		fs := f.Stats()
		st.Fleet = &fs
	}
	return st
}

// CacheStats is the observable state of a System's two caches.
type CacheStats struct {
	// Plan counts planning-layer memoization (whole-pipeline plans).
	Plan CacheCounters `json:"plan"`
	// Step counts execution-layer memoization (pure capability steps).
	Step CacheCounters `json:"step"`
	// Fleet, when the System serves over a worker fleet, snapshots
	// dispatch counters, per-worker shard inventory and wire counters.
	Fleet *fleet.Stats `json:"fleet,omitempty"`
}

// SetFleet attaches a sharded worker fleet: pure steps of capabilities
// with scatter specs are dispatched to the shard owning their data
// (and fan-out inputs scatter over all owning shards, gathering
// deterministically), instead of executing inline. The builtin
// catalog's scatter specs are installed on f. A nil fleet detaches
// (subsequent runs execute fully local). The caller keeps ownership
// of f and must Close it when done. Safe to call concurrently with
// serving; in-flight runs keep the dispatcher they started with.
func (s *System) SetFleet(f *fleet.Fleet) {
	if f != nil {
		installScatterSpecs(f)
	}
	s.fleetMu.Lock()
	s.fleet = f
	s.fleetMu.Unlock()
}

// Fleet returns the attached worker fleet, or nil.
func (s *System) Fleet() *fleet.Fleet {
	s.fleetMu.RLock()
	defer s.fleetMu.RUnlock()
	return s.fleet
}

// Registry exposes the live registry (it evolves as the curator
// promotes patterns).
func (s *System) Registry() *registry.Registry { return s.reg }

// Environment exposes the execution environment.
func (s *System) Environment() *Environment { return s.env }

// Promotions returns every composite promoted so far.
func (s *System) Promotions() []registrycurator.Promotion {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]registrycurator.Promotion, len(s.promotions))
	copy(out, s.promotions)
	return out
}

// History returns the executed-workflow observations recorded so far.
func (s *System) History() []registrycurator.Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]registrycurator.Observation, len(s.history))
	copy(out, s.history)
	return out
}

// Report is the full record of one pipeline run. The JSON tags keep
// serialized keys stable and lowercase for the HTTP serving tier.
// Its planning artifacts and Result are shared, read-only values: a
// replay of a cached plan carries the entry's Problem, Design and
// Solution, and a fully cached replay may carry the same Result as
// earlier replays of that plan.
type Report struct {
	Query    string                   `json:"query"`
	Spec     nlq.Spec                 `json:"spec,omitempty"`
	Problem  *querymind.ProblemSpec   `json:"problem,omitempty"`
	Design   *workflowscout.Design    `json:"design,omitempty"`
	Solution *solutionweaver.Solution `json:"solution,omitempty"`
	Result   *workflow.Result         `json:"result,omitempty"`
	// Promotions performed by the curator after this run.
	Promotions []registrycurator.Promotion `json:"promotions,omitempty"`
	Elapsed    time.Duration               `json:"elapsed,omitempty"`

	// memo is the replayed plan entry's memo slot; see ReplayMemo.
	memo *atomic.Pointer[[]byte]
}

// ReplayMemo returns the memo slot of the plan-cache entry rep
// replayed, or nil. The slot is returned only when the run replayed a
// cached plan, every step was served from the step cache without error
// and the run succeeded. A run plans and executes at one environment
// epoch, the one its plan entry is keyed by, so under those conditions
// everything a run derives from its plan and step outputs —
// intent, strategy, code, the all-cached step list, quality score and
// outputs — depends only on the entry, so an encoding of those parts
// stored in the slot is valid for every later replay that gets the same
// slot. The slot lives and dies with the entry; concurrent first fills
// must store identical bytes.
func ReplayMemo(rep *Report) *atomic.Pointer[[]byte] {
	if rep == nil {
		return nil
	}
	return rep.memo
}

// Ask runs the full four-agent pipeline on a natural-language query:
// parse → QueryMind → WorkflowScout → SolutionWeaver → execute →
// RegistryCurator. The context cancels the call between stages and
// mid-execution; failures surface as *PipelineError. The partially
// filled Report is returned alongside any error, with Elapsed always
// stamped.
//
// Ask is a synchronous drain of the same event-emitting pipeline that
// backs AskStream and Submit — observers registered with AskObserver
// (including expert review) fire inline; no channel or goroutine is
// involved, so a plain Ask pays no event-delivery overhead.
//
// On a System attached to a shared Scheduler (SetScheduler), Ask first
// takes a run slot under the System's class and runs on the calling
// goroutine while it holds it, so synchronous callers compete under
// the same admission control and weighted-fair order as submitted
// jobs. Admission fails as Submit does — ErrJobQueueFull when the
// queue is full, ErrJobsClosed after Close — and an Ask whose ctx ends
// while it waits returns ctx's error; all three return a nil Report.
func (s *System) Ask(ctx context.Context, query string, opts ...AskOption) (*Report, error) {
	sc, cl, err := s.takeSlot(ctx)
	if err != nil {
		return nil, err
	}
	if cl != nil {
		defer sc.release(cl)
	}
	cfg := newAskConfig(opts)
	em := emitter{query: query, observers: cfg.observers}
	rep, err := s.run(ctx, query, cfg, &em)
	if em.active() {
		em.emit(&Done{Report: rep, Err: err})
	}
	return rep, err
}

// AskStream is the non-blocking sibling of Ask: it starts the pipeline
// in a background goroutine and returns a channel of typed events —
// stage transitions, per-step execution, curation promotions — ending
// with a Done event carrying exactly what Ask would have returned. The
// channel is closed after Done.
//
// The consumer must drain the channel: the pipeline blocks once the
// consumer falls streamBuffer events behind. Cancelling ctx aborts the
// run, and a consumer that stops draining after ctx ends forfeits the
// rest of the stream after a grace period: from the first event it
// leaves untaken that long, the run drops its events, Done included,
// so an abandoned stream cannot wedge it.
func (s *System) AskStream(ctx context.Context, query string, opts ...AskOption) <-chan Event {
	cfg := newAskConfig(opts)
	if ctx == nil {
		ctx = context.Background()
	}
	out := &askStream{ch: make(chan Event, streamBuffer), live: ctx.Done()}
	em := &emitter{query: query, observers: cfg.observers, sink: out}
	go func() {
		defer close(out.ch)
		rep, err := s.run(ctx, query, cfg, em)
		em.emit(&Done{Report: rep, Err: err})
	}()
	return out.ch
}

// askStream is AskStream's sink: a direct, back-pressured channel fed
// through deliver. Once one event goes undelivered the consumer is
// gone, and every later event is dropped at once.
type askStream struct {
	ch      chan Event
	live    <-chan struct{}
	dropped bool
}

func (a *askStream) add(ev Event) {
	if !a.dropped && !deliver(a.ch, ev, a.live) {
		a.dropped = true
	}
}

// run is the single pipeline implementation behind Ask, AskStream and
// submitted jobs. It emits events through em as stages and steps
// progress; an observer veto (non-nil error from emit) aborts the run
// as a *PipelineError at the vetoed stage. The terminal Done event is
// emitted by the caller, which knows how the run is being served.
func (s *System) run(ctx context.Context, query string, cfg askConfig, em *emitter) (rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	start := time.Now()
	rep = &Report{Query: query}
	defer func() { rep.Elapsed = time.Since(start) }()

	// One epoch for the whole run: the plan key, the step keys and every
	// capability's view of the scenario come from this one load.
	ep := s.env.current()
	pe, hit, err := s.plan(ctx, query, ep, cfg.noCache, em, rep)
	if err != nil {
		return rep, err
	}

	// Execution over the parallel DAG engine. The step bridge surfaces
	// per-step events; a veto there cancels the run mid-workflow. An
	// inactive emitter (no observers, no sink — the common warm Ask)
	// skips event construction and the bridge entirely: nothing could
	// see the events or veto through them.
	active := em.active()
	if active {
		if err := em.emit(&StageStarted{Stage: StageResult}); err != nil {
			return rep, pipelineErr(StageResult, query, err)
		}
	}
	// The bridge is the only canceller of the execution context, so an
	// inactive run executes under ctx itself: RunCompiled returns only
	// after every step it launched has reported back. The bridge emits
	// through its own copy of em, which keeps the caller's emitter off
	// the heap; its sequence numbers are taken back once RunCompiled
	// returns.
	exCtx := ctx
	var bridge *stepBridge
	var obs workflow.Observer // stays a nil interface when inactive
	if active {
		var cancelEx context.CancelFunc
		exCtx, cancelEx = context.WithCancel(ctx)
		defer cancelEx()
		bridge = &stepBridge{em: *em, cancel: cancelEx}
		obs = bridge
	}
	f := s.Fleet()
	var engine *workflow.Engine
	if cfg.noCache {
		// Built per call and uncached: with no step cache the engine
		// computes no fingerprints, so the fleet's worker caches are
		// bypassed too and every step executes.
		engineOpts := []workflow.EngineOption{workflow.WithParallelism(cfg.parallelism)}
		if f != nil {
			engineOpts = append(engineOpts, workflow.WithDispatcher(f))
		}
		engine = workflow.NewEngine(s.reg, ep, engineOpts...)
	} else {
		engine = s.engineFor(ep, cfg.parallelism, f)
	}
	// A plan that failed to compile fails here, at this stage.
	var result *workflow.Result
	if err = pe.compileErr; err == nil {
		result, err = engine.RunCompiled(exCtx, pe.compiled, obs)
	}
	if bridge != nil {
		em.seq = bridge.em.seq
	}
	rep.Result = result
	s.mu.Lock()
	s.history = append(s.history, registrycurator.Observation{
		Workflow: pe.solution.Workflow, Result: result, Err: err,
	})
	if len(s.history) > maxHistory+historySlack {
		// In place: History and curate copy the window out, so no one
		// else holds this array.
		trimmed := len(s.history) - maxHistory
		kept := copy(s.history, s.history[trimmed:])
		clear(s.history[kept:])
		s.history = s.history[:kept]
		s.curatedThrough -= trimmed
		if s.curatedThrough < 0 {
			s.curatedThrough = 0
		}
	}
	s.mu.Unlock()
	if bridge != nil && bridge.veto != nil {
		return rep, pipelineErr(StageResult, query, bridge.veto)
	}
	if err != nil {
		return rep, pipelineErr(StageResult, query, err)
	}
	if active {
		if err := em.emit(&StageCompleted{Stage: StageResult, Artifact: result}); err != nil {
			return rep, pipelineErr(StageResult, query, err)
		}
	}

	// Registry evolution (RegistryCurator). Serialized so concurrent
	// calls never race to promote the same pattern.
	if cfg.curate {
		if active {
			if err := em.emit(&StageStarted{Stage: StageCuration}); err != nil {
				return rep, pipelineErr(StageCuration, query, err)
			}
		}
		promos, err := s.curate()
		if err != nil {
			return rep, pipelineErr(StageCuration, query, err)
		}
		rep.Promotions = promos
		if active {
			for _, p := range promos {
				if err := em.emit(&CurationPromoted{Promotion: p}); err != nil {
					return rep, pipelineErr(StageCuration, query, err)
				}
			}
			if err := em.emit(&StageCompleted{Stage: StageCuration, Artifact: promos}); err != nil {
				return rep, pipelineErr(StageCuration, query, err)
			}
		}
	}
	if hit && allCached(result) {
		rep.memo = &pe.memo
	}
	return rep, nil
}

// allCached reports whether every step of a run was served from the
// step cache without error.
func allCached(res *workflow.Result) bool {
	for i := range res.Steps {
		if !res.Steps[i].Cached || res.Steps[i].Err != nil {
			return false
		}
	}
	return true
}

// envKey is the engine env-keyer of the runs pinned to ep.
func (ep *envEpoch) envKey(capb *registry.Capability) string {
	return ep.FacetFingerprint(capb.Reads)
}

// engineFor returns the memoized engine for the given epoch,
// parallelism and fleet, rebuilding it when any of them changed since
// the last call. The engine runs its capabilities against ep. Engines
// are stateless, so concurrent runs may share the cached one; a race
// here at worst builds one redundant engine.
//
// Cache keys are facet-scoped: steps reading only the immutable world
// facet keep their fingerprints across scenario injections, so a
// standing query's re-run executes only the scenario-dirty subgraph
// and replays the rest from cache.
func (s *System) engineFor(ep *envEpoch, par int, f *fleet.Fleet) *workflow.Engine {
	if sl := s.engineSlot.Load(); sl != nil && sl.ep == ep && sl.fleet == f && sl.par == par {
		return sl.eng
	}
	engineOpts := []workflow.EngineOption{
		workflow.WithParallelism(par),
		workflow.WithCache(stepCacheAdapter{s.stepCache}, ep.full),
		workflow.WithEnvKeyer(ep.envKey),
	}
	if f != nil {
		engineOpts = append(engineOpts, workflow.WithDispatcher(f))
	}
	eng := workflow.NewEngine(s.reg, ep, engineOpts...)
	s.engineSlot.Store(&engineSlot{ep: ep, fleet: f, par: par, eng: eng})
	return eng
}

// planEntry is one memoized planning outcome: everything the three
// planning agents produce for a query against one registry generation
// and environment epoch, plus the plan compiled from it. The run that
// plans an entry fills it stage by stage before anyone else can see
// it; once cached, it is shared across runs and must be treated as
// immutable.
type planEntry struct {
	query    string // original query text (snapshot replay re-plans it)
	spec     nlq.Spec
	problem  *querymind.ProblemSpec
	design   *workflowscout.Design
	solution *solutionweaver.Solution
	// compiled is the workflow lowered against the registry generation
	// this entry is keyed by; when compilation failed it is nil and
	// compileErr, which every run of the entry reports, says why.
	compiled   *workflow.CompiledPlan
	compileErr error
	// memo holds bytes a serving tier derived from a fully cached
	// replay of this entry (see ReplayMemo). The plan cache is bounded
	// by entries only, so it carries no size charge.
	memo atomic.Pointer[[]byte]
}

// planKeyPool recycles the byte buffers plan keys are assembled in, so
// a warm Ask's cache probe allocates nothing.
var planKeyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 160)
	return &b
}}

// appendPlanKey builds the plan-cache key into b. The registry
// generation makes a curation promotion invalidate every previously
// cached plan: the generation is read before planning starts, so a
// plan computed against the pre-promotion catalog is only ever served
// to callers that also observed the pre-promotion generation.
// Collapsing ASCII whitespace runs is the only normalization applied
// to the query — anything stronger risks conflating queries the
// parser distinguishes (and under-normalizing merely costs a
// duplicate cache entry, never a wrong hit).
func appendPlanKey(b []byte, query string, gen uint64, fingerprint string) []byte {
	pendingSpace := false
	for i := 0; i < len(query); i++ {
		c := query[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			pendingSpace = len(b) > 0
			continue
		}
		if pendingSpace {
			b = append(b, ' ')
			pendingSpace = false
		}
		b = append(b, c)
	}
	b = append(b, 0)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, 0)
	b = append(b, fingerprint...)
	return b
}

// bytesKey views b as a string without copying. Only for transient
// map probes (lruCache.Get does not retain its key); the caller must
// not let the string outlive b's contents.
func bytesKey(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// plan runs the three planning stages — QueryMind, WorkflowScout,
// SolutionWeaver — at epoch ep in one loop, for cached and fresh plans
// alike. On a plan-cache hit each stage takes its artifact from the
// cached entry; on a miss (or with noCache) it runs its agent and
// stores the artifact in a new entry. Each stage fills its part of rep
// just before its StageCompleted, which is marked Cached on a hit, so
// observers and expert review see the same sequence either way and a
// veto, cancellation or failure leaves the same partial Report; events
// are built only when someone listens. A veto or failure surfaces as a
// *PipelineError at its stage and caches nothing. A fresh entry is
// compiled here, keeping any compile error for run to report, and
// enters the cache unless noCache. plan returns the entry and whether
// it came from the plan cache.
func (s *System) plan(ctx context.Context, query string, ep *envEpoch, noCache bool, em *emitter, rep *Report) (*planEntry, bool, error) {
	var pe *planEntry
	hit := false
	key := ""
	if !noCache {
		// The key is assembled in a pooled buffer and probed through a
		// no-copy string view; it is materialized as a real string only
		// on a miss, for Put. A warm hit allocates nothing here.
		kb := planKeyPool.Get().(*[]byte)
		buf := appendPlanKey((*kb)[:0], query, s.reg.Generation(), ep.full)
		var v any
		if v, hit = s.planCache.Get(bytesKey(buf)); hit {
			pe = v.(*planEntry)
		} else {
			key = string(buf)
		}
		*kb = buf[:0]
		planKeyPool.Put(kb)
	}
	if !hit {
		pe = &planEntry{query: query}
	}
	active := em.active()
	for _, stage := range [...]string{StageProblem, StageDesign, StageSolution} {
		if err := ctx.Err(); err != nil {
			return nil, false, pipelineErr(stage, query, err)
		}
		if active {
			if err := em.emit(&StageStarted{Stage: stage}); err != nil {
				return nil, false, pipelineErr(stage, query, err)
			}
		}
		// An agent returns no artifact with its error, so a failed stage
		// leaves its part of rep empty; a QueryMind failure still
		// reports the parse.
		var artifact any
		var err error
		switch stage {
		case StageProblem:
			if !hit {
				pe.spec = nlq.Parse(query, ep.Catalog)
				data := ep.Data()
				pe.problem, err = s.queryMind.Analyze(pe.spec, querymind.DataAvailability{
					HasCrossLayerMap: data.HasCrossLayerMap,
					MapCoverage:      data.MapCoverage,
					HasTraceArchive:  data.HasTraceArchive,
					HasBGPStream:     data.HasBGPStream,
					WindowDays:       data.WindowDays,
				})
			}
			rep.Spec, rep.Problem, artifact = pe.spec, pe.problem, pe.problem
		case StageDesign:
			if !hit {
				pe.design, err = s.scout.Design(pe.problem, s.reg)
			}
			rep.Design, artifact = pe.design, pe.design
		case StageSolution:
			if !hit {
				pe.solution, err = s.weaver.Weave(pe.design.Chosen, s.reg)
			}
			rep.Solution, artifact = pe.solution, pe.solution
		}
		if err != nil {
			return nil, false, pipelineErr(stage, query, err)
		}
		if active {
			if err := em.emit(&StageCompleted{Stage: stage, Artifact: artifact, Cached: hit}); err != nil {
				return nil, false, pipelineErr(stage, query, err)
			}
		}
	}
	if !hit {
		// Lower the fresh plan where it is planned: compilation shares
		// the plan's invalidation exactly (the key carries the registry
		// generation and environment fingerprint it resolved against).
		pe.compiled, pe.compileErr = workflow.Compile(pe.solution.Workflow, s.reg)
		if key != "" {
			s.putPlan(key, pe)
		}
	}
	return pe, hit, nil
}

// putPlan caches a fresh plan entry under key. Plans are
// metadata-sized (a Solution holds no listing: it renders one when
// read); the token charge keeps a byte bound, if ever set, meaningful.
func (s *System) putPlan(key string, pe *planEntry) {
	s.planCache.Put(key, pe, int64(len(pe.query))+512)
}

// AskBatch serves many queries from one System. Duplicate queries
// within one batch are deduplicated (singleflight): each distinct query
// runs the pipeline once and every duplicate index shares the same
// *Report, so observers fire once per distinct query. Distinct queries
// whose plan is already cached run first, one after another on the
// caller — a warm replay costs less than a hand-off, so a warm batch
// starts no goroutines — and the plan-cache misses then fan out over a
// bounded worker pool (AskParallelism sets the bound). Reports align
// with queries by index; failed queries leave their partial report in
// place and their *PipelineError joined into the returned error. On a
// System attached to a shared Scheduler each run takes a slot as any
// Ask does, so a shed query's error is ErrJobQueueFull.
func (s *System) AskBatch(ctx context.Context, queries []string, opts ...AskOption) ([]*Report, error) {
	// Fast path: zero work means zero workers, channels and
	// allocations beyond the empty (non-nil) result slice.
	if len(queries) == 0 {
		return []*Report{}, nil
	}
	cfg := newAskConfig(opts)

	// Singleflight: collapse identical queries to one pipeline run.
	// Reports are read-only after a run, so duplicate indices can alias
	// the same *Report safely. The plan-cache probe does not count, so
	// each hit shows once in CacheStats, when its Ask replays it.
	firstIdx := make(map[string]int, len(queries))
	hits := make([]int, 0, len(queries))
	var misses []int
	for i, q := range queries {
		if _, dup := firstIdx[q]; dup {
			continue
		}
		firstIdx[q] = i
		if !cfg.noCache && s.planCached(q) {
			hits = append(hits, i)
		} else {
			misses = append(misses, i)
		}
	}

	reports := make([]*Report, len(queries))
	errs := make([]error, len(queries))
	for _, i := range hits {
		reports[i], errs[i] = s.Ask(ctx, queries[i], opts...)
	}
	if len(misses) > 0 {
		workers := min(cfg.parallelism, len(misses))
		// Divide the concurrency budget between the pool and each run's
		// step parallelism, so AskParallelism(n) bounds total
		// concurrency instead of compounding to n².
		perCall := max(cfg.parallelism/workers, 1)
		callOpts := append(append([]AskOption{}, opts...), AskParallelism(perCall))
		next := make(chan int, len(misses))
		for _, i := range misses {
			next <- i
		}
		close(next)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					reports[i], errs[i] = s.Ask(ctx, queries[i], callOpts...)
				}
			}()
		}
		wg.Wait()
	}
	for i, q := range queries {
		if first := firstIdx[q]; first != i {
			// Duplicates share the run's Report; its error is already
			// represented once in the joined error.
			reports[i] = reports[first]
		}
	}
	return reports, errors.Join(errs...)
}

// planCached reports whether query's plan is cached under the current
// registry generation and environment fingerprint, without counting
// the probe or refreshing the entry's recency.
func (s *System) planCached(query string) bool {
	kb := planKeyPool.Get().(*[]byte)
	buf := appendPlanKey((*kb)[:0], query, s.reg.Generation(), s.env.Fingerprint())
	ok := s.planCache.Contains(bytesKey(buf))
	*kb = buf[:0]
	planKeyPool.Put(kb)
	return ok
}

// curate snapshots the observation history and runs one serialized
// curation pass, recording any promotions. A pass that would see no
// observations beyond the previous one is skipped, so back-to-back
// callers don't re-mine an unchanged history.
func (s *System) curate() ([]registrycurator.Promotion, error) {
	s.curateMu.Lock()
	defer s.curateMu.Unlock()
	s.mu.Lock()
	if len(s.history) <= s.curatedThrough {
		s.mu.Unlock()
		return nil, nil
	}
	hist := make([]registrycurator.Observation, len(s.history))
	copy(hist, s.history)
	s.mu.Unlock()
	promos, err := s.curator.Curate(hist, s.reg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if len(hist) > s.curatedThrough {
		s.curatedThrough = len(hist)
	}
	s.promotions = append(s.promotions, promos...)
	s.mu.Unlock()
	return promos, nil
}
