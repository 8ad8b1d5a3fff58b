package core

import (
	"context"
	"fmt"
	"time"

	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/workflow"
)

// Event is one observable occurrence in the lifecycle of a pipeline
// run: stages starting and completing, individual workflow steps
// executing, curation promoting composites, and the terminal Done.
// Events are delivered in emission order; every run ends with exactly
// one Done. Concrete events are pointers to the structs below — type-
// switch to consume them:
//
//	switch ev := ev.(type) {
//	case *core.StepCompleted:
//		log.Printf("%s in %v", ev.Step, ev.Duration)
//	case *core.Done:
//		return ev.Report, ev.Err
//	}
//
// Events embed EventMeta, which carries the query, the emission
// sequence number, and the emission time.
type Event interface {
	meta() *EventMeta
}

// EventMeta is the header common to every event.
type EventMeta struct {
	// Query is the natural-language query of the run that emitted the
	// event.
	Query string
	// Seq is the 0-based emission index of the event within its run.
	Seq int
	// Time is when the event was emitted.
	Time time.Time
}

func (m *EventMeta) meta() *EventMeta { return m }

// StageStarted announces that a pipeline stage (StageProblem,
// StageDesign, StageSolution, StageResult or StageCuration) is about
// to run.
type StageStarted struct {
	EventMeta
	Stage string
}

// StageCompleted carries the artifact leaving a pipeline stage: a
// *querymind.ProblemSpec, *workflowscout.Design,
// *solutionweaver.Solution, *workflow.Result, or (for StageCuration)
// the []registrycurator.Promotion of the pass. An observer returning
// an error from a StageCompleted vetoes the pipeline — this is how
// expert review is implemented.
type StageCompleted struct {
	EventMeta
	Stage    string
	Artifact any
	// Cached marks a planning stage replayed from the System's plan
	// cache rather than recomputed; the artifact is the memoized one.
	// Observers (including expert review) fire either way.
	Cached bool
}

// StepStarted announces one workflow step being handed to a worker
// during the execution stage.
type StepStarted struct {
	EventMeta
	Step       string
	Capability string
}

// StepCompleted reports one workflow step finishing successfully.
type StepCompleted struct {
	EventMeta
	Step       string
	Capability string
	Duration   time.Duration
	// Cached marks a step whose outputs were served from the step
	// cache instead of executing the capability (Duration is zero).
	Cached bool
}

// StepFailed reports one workflow step failing (capability error,
// panic, or output-contract violation).
type StepFailed struct {
	EventMeta
	Step       string
	Capability string
	Duration   time.Duration
	Err        error
}

// CurationPromoted reports one composite capability promoted by the
// curator after this run.
type CurationPromoted struct {
	EventMeta
	Promotion registrycurator.Promotion
}

// Done is the terminal event of every run: the (possibly partial)
// Report and the run's error, exactly as Ask would return them. It is
// always the last event; AskStream closes the channel after it.
type Done struct {
	EventMeta
	Report *Report
	Err    error
}

// Observer watches the event stream of one call, registered with
// AskObserver. Returning a non-nil error vetoes the pipeline: at a
// StageCompleted the run aborts before the next stage; at a step event
// the in-flight workflow is cancelled. Veto errors surface as a
// *PipelineError naming the stage. Errors returned for Done are
// ignored (the run is already over). Observers run synchronously on
// the pipeline's goroutine — keep them fast.
type Observer interface {
	Observe(Event) error
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event) error

// Observe implements Observer.
func (f ObserverFunc) Observe(ev Event) error { return f(ev) }

// expertReviewer reimplements expert-mode review as an ordinary
// observer: it inspects the artifact leaving each of the four reviewed
// stages (curation is reported, not reviewed) and turns a hook
// rejection into a pipeline veto.
func expertReviewer(hook ReviewHook) Observer {
	return ObserverFunc(func(ev Event) error {
		sc, ok := ev.(*StageCompleted)
		if !ok || sc.Stage == StageCuration {
			return nil
		}
		if err := hook(sc.Stage, sc.Artifact); err != nil {
			return fmt.Errorf("expert review rejected %s: %w", sc.Stage, err)
		}
		return nil
	})
}

// emitter delivers one run's events: it stamps EventMeta, notifies the
// call's observers, and forwards to an optional sink (the AskStream
// channel or a job's event log). The first observer error is returned
// as the veto verdict; remaining observers and the sink still see the
// event.
type emitter struct {
	query     string
	seq       int
	observers []Observer
	sink      eventSink
}

// eventSink takes every event of a run after its observers:
// *eventLog[Event] for a job, *askStream for AskStream.
type eventSink interface{ add(Event) }

// active reports whether anyone would see an event from this run.
// The warm serving path checks it before constructing events at all:
// a plain Ask with no observers and no sink allocates nothing for
// observability it cannot deliver. An inactive emitter also cannot
// veto, so skipping emission is semantically identical, not just
// byte-identical.
func (e *emitter) active() bool {
	return len(e.observers) > 0 || e.sink != nil
}

func (e *emitter) emit(ev Event) error {
	m := ev.meta()
	m.Query, m.Seq, m.Time = e.query, e.seq, time.Now()
	e.seq++
	var veto error
	for _, o := range e.observers {
		if err := o.Observe(ev); err != nil && veto == nil {
			veto = err
		}
	}
	if e.sink != nil {
		e.sink.add(ev)
	}
	return veto
}

// stepBridge adapts the workflow engine's step-level Observer to core
// events. An observer veto at a step event cancels the in-flight run;
// the veto error then takes precedence over the engine's cancellation
// error. The engine serializes observer calls per run, so no locking
// is needed here. The bridge emits through its own copy of the run's
// emitter, whose sequence the run takes back after execution.
type stepBridge struct {
	em     emitter
	cancel context.CancelFunc
	veto   error
}

func (b *stepBridge) StepStarted(id, capability string) {
	b.observe(b.em.emit(&StepStarted{Step: id, Capability: capability}))
}

func (b *stepBridge) StepFinished(stat workflow.StepStat) {
	if stat.Err != nil {
		b.observe(b.em.emit(&StepFailed{
			Step: stat.ID, Capability: stat.Capability, Duration: stat.Duration, Err: stat.Err,
		}))
		return
	}
	b.observe(b.em.emit(&StepCompleted{
		Step: stat.ID, Capability: stat.Capability, Duration: stat.Duration, Cached: stat.Cached,
	}))
}

func (b *stepBridge) observe(err error) {
	if err != nil && b.veto == nil {
		b.veto = err
		b.cancel()
	}
}
