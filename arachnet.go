// Package arachnet is the public API of ArachNet-Go, a reproduction of
// "Towards an Agentic Workflow for Internet Measurement Research"
// (HotNets 2025): four specialized agents — QueryMind, WorkflowScout,
// SolutionWeaver and RegistryCurator — that turn natural-language
// measurement questions into executable, quality-checked measurement
// workflows over a curated capability registry.
//
// The package also ships every substrate the workflows run on: a
// seeded synthetic Internet, Nautilus-style submarine-cable
// cartography, Xaminer-style resilience analysis, a policy-aware BGP
// simulator, a traceroute campaign engine, and cascade modeling.
//
// A System is built once and safely shared, and its pipeline is
// observable end to end through a typed event model: every run emits
// StageStarted/StageCompleted for the five pipeline stages,
// StepStarted/StepCompleted/StepFailed for each workflow step the DAG
// engine executes, CurationPromoted for registry evolution, and a
// terminal Done carrying the Report. One pipeline implementation
// serves three consumption styles:
//
//   - Ask(ctx, query, ...AskOption) blocks and returns the Report —
//     a synchronous drain of the event path.
//   - AskStream(ctx, query, ...AskOption) returns <-chan Event
//     immediately; consume events until the channel closes after Done.
//   - Submit(ctx, query, ...AskOption) enqueues an async Job on a
//     bounded queue; the job runs on its own goroutine once a
//     Scheduler grants it a run slot. Track it with Job.Events
//     (replayable), Job.Wait, Job.Cancel and sys.Jobs.
//
// Every event stream — AskStream, Job.Events and Subscription.Events —
// delivers by one policy: a send blocks while its producer is live
// (the ask's ctx, the job's context, the open subscription), and once
// the producer is done, a reader that takes nothing for a five-second
// grace period forfeits the rest of its stream. Job and subscription
// streams replay one append-only log, so a late reader sees the full
// history; an AskStream is a single back-pressured channel.
//
// Per-call options (AskExpert, AskObserver, AskWithoutCuration,
// AskTimeout, AskParallelism, AskNoCache) let one shared System serve
// heterogeneous requests; AskBatch fans a query set out over a bounded
// worker pool and runs duplicate queries once (singleflight). Expert
// review is itself just an event observer that may veto a stage.
//
// Serving is memoized at two layers. A plan cache keyed by (query,
// registry generation, environment) skips the three planning agents
// for repeat queries and is invalidated automatically whenever the
// curator promotes a composite; a step cache memoizes Pure capability
// executions across runs by a deterministic fingerprint of the
// computation. Cached work still emits events, flagged Cached. Inspect
// with System.CacheStats, tune or disable with System.SetCacheLimits,
// and bypass per call with AskNoCache.
//
// Every run executes on one engine, whose only input is a compiled
// plan (capability pointers, dependency schedule, fingerprint
// templates — see internal/workflow.CompiledPlan). A plan is compiled
// where it is planned and cached with its compiled artifact, so repeat
// servings skip every per-run lookup and re-canonicalization;
// compilation shares the plan cache's invalidation exactly. Plain,
// observed, streamed and submitted asks share one memoized engine, and
// AskNoCache plans and compiles afresh and runs on an uncached one.
// Warm state also survives restarts: System.SaveSnapshot writes both
// caches and the curation promotions to a versioned,
// fingerprint-validated document and System.LoadSnapshot restores it
// into a freshly built equivalent System; SaveSnapshotFile and
// LoadSnapshotFile do the same with a file, replacing it only once the
// new snapshot is synced to disk (see the -snapshot flag on
// cmd/arachnet and cmd/arachnet-serve).
//
// Continuous monitoring turns one-shot queries into standing ones:
// Subscribe(ctx, query, ...AskOption) registers a query that
// re-executes automatically whenever the environment mutates (scenario
// injection) or the registry evolves, and emits typed delta events —
// ResultChanged with a structured diff, AnomalyAppeared/AnomalyCleared
// for detector findings, ResultUnchanged heartbeats — instead of full
// reports. Re-execution is incremental: capabilities declare which
// environment facets they read (Capability.Reads), so only steps whose
// facet fingerprints changed actually run; the rest replay from the
// step cache. Each run plans and executes against the one environment
// epoch (scenario and fingerprints) it loaded when it started.
//
// For serving over the network, cmd/arachnet-serve exposes the same
// pipeline as a multi-tenant HTTP/JSON + SSE service (package
// internal/serve): each tenant gets its own registry view and cache
// quotas, and all tenants compete for one set of run slots through a
// shared weighted-fair Scheduler (System.SetScheduler). An attached
// System's Asks take a slot too and run on their caller's goroutine,
// so synchronous asks, jobs and standing-query re-runs share one
// admission control without every ask becoming a job.
//
// Quickstart:
//
//	sys, err := arachnet.New(arachnet.WithSeed(42))
//	if err != nil { ... }
//	report, err := sys.Ask(ctx, "Identify the impact at a country level due to SeaMeWe-5 cable failure")
//	if err != nil { ... }
//	fmt.Println(report.Solution.Code()) // the generated workflow program, rendered on each call
//	fmt.Println(report.Result.Outputs)  // the executed analysis results
//
// Streaming the same run instead:
//
//	for ev := range sys.AskStream(ctx, query) {
//		switch ev := ev.(type) {
//		case *arachnet.StepCompleted:
//			fmt.Println("step", ev.Step, "in", ev.Duration)
//		case *arachnet.Done:
//			report, err = ev.Report, ev.Err
//		}
//	}
package arachnet

import (
	"fmt"
	"time"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/core"
	"arachnet/internal/eval"
	"arachnet/internal/expert"
	"arachnet/internal/fleet"
	"arachnet/internal/fleetwire"
	"arachnet/internal/geo"
	"arachnet/internal/netsim"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
	"arachnet/internal/xaminer"
)

// Re-exported core types. Aliases keep the public surface thin while
// the implementation lives in internal packages.
type (
	// System is the assembled four-agent pipeline.
	System = core.System
	// Report is the full record of one pipeline run.
	Report = core.Report
	// Environment is the simulated measurement environment.
	Environment = core.Environment
	// Registry is the capability catalog agents plan over.
	Registry = registry.Registry
	// Capability is one registry entry.
	Capability = registry.Capability
	// Port is one typed input/output of a capability.
	Port = registry.Port
	// Call is the invocation context passed to capability
	// implementations.
	Call = registry.Call
	// DataType names a value format flowing between capabilities.
	DataType = registry.DataType
	// AskOption configures one Ask, AskStream, AskBatch or Submit call.
	AskOption = core.AskOption
	// ReviewHook inspects artifacts between stages in expert mode.
	ReviewHook = core.ReviewHook
	// Event is one observable occurrence in a run's lifecycle; consume
	// the concrete types below with a type switch.
	Event = core.Event
	// EventMeta is the header (query, sequence, time) common to every
	// event.
	EventMeta = core.EventMeta
	// StageStarted announces a pipeline stage about to run.
	StageStarted = core.StageStarted
	// StageCompleted carries the artifact leaving a pipeline stage.
	StageCompleted = core.StageCompleted
	// StepStarted announces one workflow step being dispatched.
	StepStarted = core.StepStarted
	// StepCompleted reports one workflow step finishing successfully.
	StepCompleted = core.StepCompleted
	// StepFailed reports one workflow step failing.
	StepFailed = core.StepFailed
	// CurationPromoted reports one composite promoted after a run.
	CurationPromoted = core.CurationPromoted
	// Done is the terminal event of every run.
	Done = core.Done
	// Observer watches a call's event stream and may veto stages.
	Observer = core.Observer
	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = core.ObserverFunc
	// Job is one asynchronously-served query (see System.Submit).
	Job = core.Job
	// JobState is the lifecycle phase of a Job.
	JobState = core.JobState
	// CacheStats is the observable state of a System's plan and step
	// caches (see System.CacheStats).
	CacheStats = core.CacheStats
	// CacheCounters is the hit/miss/eviction state of one cache.
	CacheCounters = core.CacheCounters
	// Fleet is a sharded worker pool for DIMES-style distributed
	// execution (see WithRemoteFleet and System.SetFleet).
	Fleet = fleet.Fleet
	// FleetStats snapshots fleet dispatch counters and per-worker
	// shard inventory (surfaced through CacheStats.Fleet).
	FleetStats = fleet.Stats
	// FleetShardInventory describes what one worker's shard holds, as
	// FleetStats.Shards lists it. The coordinator counts nothing per
	// worker.
	FleetShardInventory = fleet.ShardInventory
	// FleetShardStats is a worker's own view: its shard inventory plus
	// its execution and cache counters, as the worker's GET /v1/stats
	// reports them under "shard".
	FleetShardStats = fleet.ShardStats
	// FleetWireStats counts remote-transport activity when the fleet
	// runs over real worker processes (see WithRemoteFleet); surfaced
	// as FleetStats.Wire.
	FleetWireStats = fleet.WireStats
	// JobSummary is a serialization-friendly snapshot of one Job.
	JobSummary = core.JobSummary
	// Scheduler is a weighted-fair admission queue that grants a fixed
	// number of run slots to asks and jobs, which run on their own
	// goroutines; share one across Systems via System.SetScheduler for
	// multi-tenant serving (see internal/serve and cmd/arachnet-serve
	// for the HTTP tier built on it).
	Scheduler = core.Scheduler
	// ClassConfig weights and bounds one scheduling class.
	ClassConfig = core.ClassConfig
	// ClassStats is the observable state of one scheduling class.
	ClassStats = core.ClassStats
	// QueueStats is the observable state of a Scheduler.
	QueueStats = core.QueueStats
	// Subscription is one standing query under continuous monitoring
	// (see System.Subscribe): it re-executes automatically when the
	// environment or the registry changes and emits the delta events
	// below instead of full reports.
	Subscription = core.Subscription
	// SubEvent is one observable occurrence in a subscription's
	// lifecycle; consume the concrete types below with a type switch.
	SubEvent = core.SubEvent
	// SubEventMeta is the header (subscription, sequence, revision,
	// time) common to every subscription event.
	SubEventMeta = core.SubEventMeta
	// SubscriptionStarted carries the baseline run's report (or error).
	SubscriptionStarted = core.SubscriptionStarted
	// ResultChanged reports a re-execution whose result differs from
	// the previous one, as a structured delta.
	ResultChanged = core.ResultChanged
	// ResultUnchanged is the heartbeat of a re-execution that replayed
	// to an identical result.
	ResultUnchanged = core.ResultUnchanged
	// AnomalyAppeared reports a measurement anomaly newly present in
	// the standing query's result.
	AnomalyAppeared = core.AnomalyAppeared
	// AnomalyCleared reports a previously-seen anomaly disappearing.
	AnomalyCleared = core.AnomalyCleared
	// SubscriptionClosed is the terminal event of every subscription.
	SubscriptionClosed = core.SubscriptionClosed
	// ResultDelta is the structured difference between two runs of a
	// standing query.
	ResultDelta = core.ResultDelta
	// OutputDiff is one changed output path within a ResultDelta.
	OutputDiff = core.OutputDiff
	// AnomalySignal is one detector finding extracted from a result.
	AnomalySignal = core.AnomalySignal
)

// Change causes labeling ResultChanged/ResultUnchanged events.
const (
	// CauseEnvironment marks a re-execution triggered by an environment
	// mutation (scenario injection).
	CauseEnvironment = core.CauseEnvironment
	// CauseRegistry marks a re-execution triggered by registry
	// evolution (capability registration or curator promotion).
	CauseRegistry = core.CauseRegistry
)

// Environment facets a capability may read (Capability.Reads);
// facet-scoped fingerprints are what make subscription re-execution
// incremental.
const (
	// FacetWorld is the immutable generated world.
	FacetWorld = core.FacetWorld
	// FacetScenario is the injectable measurement scenario.
	FacetScenario = core.FacetScenario
)

// NewScheduler builds a shared weighted-fair scheduler with the given
// number of run slots (how many runs may go at once) and global queue
// depth (non-positive values mean GOMAXPROCS slots and depth 128).
// Attach Systems to it with System.SetScheduler(sched, class) before
// their first Submit.
func NewScheduler(workers, depth int) *Scheduler { return core.NewScheduler(workers, depth) }

// Default cache bounds applied by New; see System.SetCacheLimits. A
// flush is a disable/re-enable cycle: SetCacheLimits(0, 0, 0) followed
// by SetCacheLimits with these values restores the stock configuration
// with empty caches.
const (
	DefaultPlanCacheEntries = core.DefaultPlanCacheEntries
	DefaultStepCacheEntries = core.DefaultStepCacheEntries
	DefaultStepCacheBytes   = core.DefaultStepCacheBytes
)

type (
	// Promotion is one composite capability promoted by the curator.
	Promotion = registrycurator.Promotion
	// PipelineError is the typed failure of one Ask: stage, failing
	// workflow step, and query. errors.Is/As see through it.
	PipelineError = core.PipelineError
	// StepError is the typed failure of one workflow step.
	StepError = workflow.StepError
	// ScenarioConfig controls forensic-scenario injection.
	ScenarioConfig = core.ScenarioConfig
	// ImpactReport is a per-country impact table.
	ImpactReport = xaminer.ImpactReport
	// GlobalImpact is a combined multi-event impact view.
	GlobalImpact = xaminer.GlobalImpact
	// Verdict is a forensic causation verdict.
	Verdict = core.Verdict
	// Timeline is a unified cross-layer cascade timeline.
	Timeline = core.Timeline
	// WorldConfig controls synthetic-world generation.
	WorldConfig = netsim.Config
	// ImpactSimilarity quantifies agent-vs-expert agreement.
	ImpactSimilarity = eval.ImpactSimilarity
	// VerdictAgreement quantifies forensic agreement.
	VerdictAgreement = eval.VerdictAgreement
	// CascadeReport bundles the expert cascade outputs.
	CascadeReport = expert.CascadeReport
	// ProblemSpec is QueryMind's decomposition artifact (reviewed in
	// expert mode at StageProblem).
	ProblemSpec = querymind.ProblemSpec
	// Design is WorkflowScout's artifact (StageDesign).
	Design = workflowscout.Design
	// Solution is SolutionWeaver's artifact (StageSolution).
	Solution = solutionweaver.Solution
)

// Pipeline stage names. The first four are passed to expert-mode
// review hooks; all five label PipelineError.Stage (curation failures
// are reported, not reviewed).
const (
	StageProblem  = core.StageProblem
	StageDesign   = core.StageDesign
	StageSolution = core.StageSolution
	StageResult   = core.StageResult
	StageCuration = core.StageCuration
)

// Job lifecycle states (see System.Submit).
const (
	JobQueued    = core.JobQueued
	JobRunning   = core.JobRunning
	JobDone      = core.JobDone
	JobCancelled = core.JobCancelled
)

// Async serving errors.
var (
	// ErrJobQueueFull is returned by Submit, and by Ask on a System
	// attached to a shared Scheduler, when the bounded queue has no
	// room.
	ErrJobQueueFull = core.ErrJobQueueFull
	// ErrJobsStarted is returned by SetScheduler once the System's job
	// scheduler is fixed: after the first Submit, or after a
	// SetScheduler.
	ErrJobsStarted = core.ErrJobsStarted
	// ErrJobsClosed is returned by Submit — and by Ask on a System
	// attached to a shared Scheduler — after System.Close or
	// Scheduler.Close.
	ErrJobsClosed = core.ErrJobsClosed
)

// AskExpert runs one call in expert mode: hook reviews the artifact
// leaving each of the four pipeline stages and may veto it. It is
// implemented as an AskObserver over stage-completion events.
func AskExpert(hook ReviewHook) AskOption { return core.AskExpert(hook) }

// AskObserver attaches an event observer to one call; observers see
// every event of the run and may veto the pipeline by returning an
// error.
func AskObserver(obs Observer) AskOption { return core.AskObserver(obs) }

// AskWithoutCuration disables post-run registry evolution for one call
// (curation is on by default).
func AskWithoutCuration() AskOption { return core.AskWithoutCuration() }

// AskNoCache bypasses plan and step memoization for one call: nothing
// is read from or written to the caches and every workflow step
// executes fresh.
func AskNoCache() AskOption { return core.AskNoCache() }

// AskTimeout bounds one call's wall-clock time.
func AskTimeout(d time.Duration) AskOption { return core.AskTimeout(d) }

// AskParallelism bounds concurrency: how many independent workflow
// steps an Ask executes at once, and for AskBatch the total budget —
// divided between concurrent queries and their steps (default
// GOMAXPROCS).
func AskParallelism(n int) AskOption { return core.AskParallelism(n) }

// options collects construction parameters.
type options struct {
	world       netsim.Config
	scenario    *core.ScenarioConfig
	registry    *registry.Registry
	fleetRemote []string
}

// Option configures New.
type Option func(*options)

// WithSeed selects the world seed (full-size world).
func WithSeed(seed uint64) Option {
	return func(o *options) { o.world = netsim.DefaultConfig(seed) }
}

// WithSmallWorld uses the compact 12-country world (fast; used by the
// test suite).
func WithSmallWorld(seed uint64) Option {
	return func(o *options) { o.world = netsim.SmallConfig(seed) }
}

// WithWorldConfig supplies a fully custom world configuration.
func WithWorldConfig(cfg WorldConfig) Option {
	return func(o *options) { o.world = cfg }
}

// WithScenario injects a cable-failure measurement scenario (traceroute
// archive + BGP stream), enabling temporal and forensic analyses.
func WithScenario(sc ScenarioConfig) Option {
	return func(o *options) { o.scenario = &sc }
}

// WithRegistry overrides the builtin capability catalog (e.g. a
// Subset for controlled evaluations).
func WithRegistry(r *Registry) Option {
	return func(o *options) { o.registry = r }
}

// WithRemoteFleet shards the world over one worker per address and
// routes each shard's scatter-gather requests to the arachnet-worker
// process at that address (host:port) over HTTP — true multi-process
// distributed execution behind the same fleet seam. Workers must have
// been started with the same -world/-seed derivation and
// -shards=len(addrs); the registration handshake verifies it and
// rejects mismatched workers. A worker holds the world and no
// scenario: steps that read the scenario run on the coordinator, so
// WithScenario and later injections need nothing from the workers. A
// dead, slow or rejected remote fails over to running its shard's
// requests on the coordinator, which owns the whole world, so results
// are byte-identical to inline execution regardless of which workers
// are reachable.
func WithRemoteFleet(addrs ...string) Option {
	return func(o *options) { o.fleetRemote = addrs }
}

// New assembles a ready-to-ask ArachNet system. Defaults: full-size
// world with seed 42, builtin registry. Serving behavior — expert
// review, curation, timeouts, parallelism — is chosen per call with
// AskOptions, so one System handles heterogeneous requests.
func New(opts ...Option) (*System, error) {
	o := &options{world: netsim.DefaultConfig(42)}
	for _, opt := range opts {
		opt(o)
	}
	env, err := core.NewEnvironment(o.world)
	if err != nil {
		return nil, fmt.Errorf("arachnet: %w", err)
	}
	if o.scenario != nil {
		if err := env.InjectCableFailureScenario(*o.scenario); err != nil {
			return nil, fmt.Errorf("arachnet: %w", err)
		}
	}
	sys, err := core.NewSystem(env, o.registry)
	if err != nil {
		return nil, err
	}
	if len(o.fleetRemote) > 0 {
		f, err := fleetwire.NewFleet(env.World, o.fleetRemote)
		if err != nil {
			return nil, fmt.Errorf("arachnet: %w", err)
		}
		sys.SetFleet(f)
	}
	return sys, nil
}

// BuiltinRegistry returns the full hand-curated capability catalog.
func BuiltinRegistry() *Registry { return core.BuiltinRegistry() }

// CS1RegistryNames returns the restricted capability set of the paper's
// Case Study 1 ("core Nautilus functions only").
func CS1RegistryNames() []string { return core.CS1RegistryNames() }

// RenderImpact formats an impact report as a table with the top n rows.
func RenderImpact(rep *ImpactReport, n int) string { return core.RenderImpact(rep, n) }

// Regions recognized in queries.
const (
	Europe       = geo.Europe
	Asia         = geo.Asia
	NorthAmerica = geo.NorthAmerica
	SouthAmerica = geo.SouthAmerica
	Africa       = geo.Africa
	MiddleEast   = geo.MiddleEast
	Oceania      = geo.Oceania
)

// ExpertCableImpact runs the hand-coded specialist solution for cable
// impact analysis (the paper's Case Study 1 comparator).
func ExpertCableImpact(sys *System, cableName string) (*ImpactReport, error) {
	return expert.CableImpact(sys.Environment(), cableName)
}

// ExpertDisasterImpact runs the specialist multi-disaster workflow
// (Case Study 2 comparator).
func ExpertDisasterImpact(sys *System, failProb float64) (GlobalImpact, error) {
	return expert.DisasterImpact(sys.Environment(), failProb)
}

// ExpertCascade runs the specialist cascading-failure workflow (Case
// Study 3 comparator).
func ExpertCascade(sys *System, regionA, regionB geo.Region) (*CascadeReport, error) {
	return expert.Cascade(sys.Environment(), regionA, regionB)
}

// ExpertForensic runs the specialist root-cause investigation (Case
// Study 4 comparator).
func ExpertForensic(sys *System) (Verdict, error) {
	return expert.Forensic(sys.Environment())
}

// CompareImpact measures agent-vs-expert similarity of impact reports.
func CompareImpact(agent, exp *ImpactReport) ImpactSimilarity {
	return eval.CompareImpact(agent, exp)
}

// CompareVerdicts measures agent-vs-expert forensic agreement.
func CompareVerdicts(agent, exp Verdict) VerdictAgreement {
	return eval.CompareVerdicts(agent, exp)
}

// GlobalToReport adapts a combined multi-event impact for CompareImpact.
func GlobalToReport(g GlobalImpact) *ImpactReport { return eval.GlobalToReport(g) }

// FunctionalOverlap measures how much of an expert workflow's
// conceptual transformation set an agent workflow covers.
func FunctionalOverlap(rep *Report, sys *System, expertSteps []string) float64 {
	if rep.Design == nil || rep.Design.Chosen == nil {
		return 0
	}
	return eval.FunctionalOverlap(rep.Design.Chosen, sys.Registry(), expertSteps)
}

// Expert conceptual step sets for the four case studies.
func ExpertCableImpactSteps() []string    { return expert.CableImpactSteps() }
func ExpertDisasterImpactSteps() []string { return expert.DisasterImpactSteps() }
func ExpertCascadeSteps() []string        { return expert.CascadeSteps() }
func ExpertForensicSteps() []string       { return expert.ForensicSteps() }
