// Async serving: a bounded-queue job subsystem that turns one System
// into a long-lived server. Submit admits a query to a Scheduler (see
// scheduler.go) and returns a Job immediately; the job's own goroutine
// waits for a run slot and then drives the same event-emitting
// pipeline that backs Ask and AskStream. Jobs are tracked (Jobs),
// observable (Events), awaitable (Wait) and cancellable (Cancel) —
// queued or mid-run. By default each System gets a private single-class
// scheduler for its jobs (plain bounded FIFO); SetScheduler attaches a
// shared weighted-fair one instead, the seam the multi-tenant HTTP tier
// uses, and then synchronous Asks take their slots from it too.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// JobState is the lifecycle phase of a submitted job.
type JobState string

const (
	// JobQueued: accepted, waiting for a run slot.
	JobQueued JobState = "queued"
	// JobRunning: the job holds a slot and is executing the pipeline.
	JobRunning JobState = "running"
	// JobDone: finished — successfully or with an error (see Wait).
	JobDone JobState = "done"
	// JobCancelled: cancelled before or during execution.
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (st JobState) terminal() bool { return st == JobDone || st == JobCancelled }

const (
	// defaultJobQueueDepth bounds how many runs may wait for a slot
	// before admission starts refusing with ErrJobQueueFull.
	defaultJobQueueDepth = 128
	// maxRetainedJobs bounds how many finished jobs Jobs() remembers;
	// older finished jobs are pruned so a long-lived server's job
	// table stays flat. In-flight jobs are never pruned.
	maxRetainedJobs = 1024
	// jobSlack delays pruning until the table overshoots
	// maxRetainedJobs by this much, so the in-place trim runs once per
	// jobSlack submissions instead of on every one.
	jobSlack = 128
)

// Job is one asynchronously-served query. All methods are safe for
// concurrent use.
type Job struct {
	id    uint64
	query string
	opts  []AskOption
	// class is the scheduling class the System was attached under
	// (empty for a private scheduler); claim is the job's place in the
	// scheduler's queue, then its run slot.
	class string
	sched *Scheduler
	claim *claim

	ctx    context.Context
	cancel context.CancelFunc

	// log is the job's event stream: what the pipeline emitted, ending
	// with Done. It has its own lock, taken after mu where both are.
	log eventLog[Event]

	mu        sync.Mutex
	state     JobState
	cancelled bool
	report    *Report
	err       error
	done      chan struct{}
}

// ID is the job's submission-ordered identifier, unique per System.
func (j *Job) ID() uint64 { return j.id }

// Query returns the job's natural-language query.
func (j *Job) Query() string { return j.query }

// Class returns the scheduling class the job was submitted under
// (empty unless the System is attached to a shared Scheduler).
func (j *Job) Class() string { return j.class }

// JobSummary is a serialization-friendly snapshot of one job, the
// shape the HTTP tier returns from its job-listing endpoints.
type JobSummary struct {
	ID    uint64   `json:"id"`
	Query string   `json:"query"`
	Class string   `json:"class,omitempty"`
	State JobState `json:"state"`
	// Error is the terminal error text, empty while in flight or on
	// success.
	Error string `json:"error,omitempty"`
	// Elapsed is the finished run's wall-clock time in nanoseconds
	// (JSON's default encoding for time.Duration); zero while in
	// flight.
	Elapsed time.Duration `json:"elapsed,omitempty"`
}

// Summary snapshots the job without blocking.
func (j *Job) Summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := JobSummary{ID: j.id, Query: j.query, Class: j.class, State: j.state}
	if j.state.terminal() {
		if j.err != nil {
			out.Error = j.err.Error()
		}
		if j.report != nil {
			out.Elapsed = j.report.Elapsed
		}
	}
	return out
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state;
// it composes with select the way context.Done does.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes (or ctx is cancelled) and returns
// the job's report and error, exactly as a blocking Ask would have. A
// nil ctx waits indefinitely.
func (j *Job) Wait(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.report, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel stops the job: a queued job leaves the scheduler's queue and
// completes immediately with context.Canceled, never running; a running
// job has its pipeline cancelled mid-flight. Cancel is idempotent and a
// no-op on finished jobs.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state == JobQueued {
		j.sched.abandon(j.claim)
		j.cancelled = true
		j.finishQueuedLocked(context.Canceled)
		j.mu.Unlock()
		j.cancel()
		return
	}
	if j.state == JobRunning {
		j.cancelled = true
	}
	j.mu.Unlock()
	j.cancel()
}

// Events returns a channel that replays the job's event stream from
// the beginning — late subscribers see the full history — then follows
// it live and closes after the terminal Done event. Each call gets an
// independent channel; multiple subscribers may watch one job. While
// the job is live a slow subscriber blocks only its own channel (the
// log decouples the pipeline, so it never stalls the run). The caller
// should drain the channel: once the job's context is released (it
// finished or was cancelled), a subscriber that stops reading forfeits
// remaining events after a grace period and the channel closes.
func (j *Job) Events() <-chan Event { return j.log.stream(j.ctx.Done()) }

// finishLocked moves the job to its terminal state.
func (j *Job) finishLocked(rep *Report, err error) {
	if j.state.terminal() {
		return
	}
	j.report, j.err = rep, err
	// A job is JobCancelled only when it actually failed because of
	// cancellation — via Job.Cancel or the Submit parent context. A
	// run that completed successfully is JobDone even if a Cancel
	// raced its final moments, and a run that failed for an unrelated
	// reason is JobDone-with-error even if a Cancel raced the failure.
	if err != nil && errors.Is(err, context.Canceled) && (j.cancelled || j.ctx.Err() != nil) {
		j.state = JobCancelled
	} else {
		j.state = JobDone
	}
	close(j.done)
	j.log.close()
}

// jobTable is the System's async serving state: the scheduler the
// System routes jobs through (private by default, shared via
// SetScheduler) and the submission-ordered job index.
type jobTable struct {
	mu    sync.Mutex
	sched *Scheduler
	// private marks a scheduler this System created for itself (and so
	// owns: Close closes it). An attached shared scheduler is left
	// running for its other Systems.
	private bool
	class   string
	closed  bool
	nextID  uint64
	jobs    []*Job
}

// SetScheduler attaches the System to a shared Scheduler under the
// given scheduling class: subsequent Submits, Asks (and so AskBatches)
// and subscription re-runs compete for the shared run slots according
// to the class's weight and bounds, while the System keeps its own
// registry, caches and job table — the isolation seam the multi-tenant
// serving tier builds on. It must be called before the first Submit;
// afterwards (or after a previous attach) it fails with
// ErrJobsStarted.
func (s *System) SetScheduler(sc *Scheduler, class string) error {
	if sc == nil {
		return fmt.Errorf("core: nil scheduler")
	}
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	if s.jobs.sched != nil {
		return ErrJobsStarted
	}
	s.jobs.sched = sc
	s.jobs.class = class
	return nil
}

// Submit enqueues a query for asynchronous execution and returns its
// Job immediately; the job runs on its own goroutine once the
// scheduler grants it a slot. If the bounded queue (global depth, or
// the System's class bound on a shared scheduler) is full, Submit fails
// fast with ErrJobQueueFull rather than blocking the caller — shed load
// or retry later. Cancelling ctx cancels the job, queued or running;
// per-call AskOptions apply when the job runs.
func (s *System) Submit(ctx context.Context, query string, opts ...AskOption) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		query:  query,
		opts:   opts,
		ctx:    jctx,
		cancel: cancel,
		state:  JobQueued,
		done:   make(chan struct{}),
	}

	s.jobs.mu.Lock()
	if s.jobs.closed {
		s.jobs.mu.Unlock()
		cancel()
		return nil, ErrJobsClosed
	}
	s.ensureSchedulerLocked()
	cl, err := s.jobs.sched.admit(s.jobs.class)
	if err != nil {
		s.jobs.mu.Unlock()
		cancel()
		return nil, err
	}
	j.class, j.sched, j.claim = s.jobs.class, s.jobs.sched, cl
	s.jobs.nextID++
	j.id = s.jobs.nextID
	s.jobs.jobs = append(s.jobs.jobs, j)
	s.pruneJobsLocked()
	s.jobs.mu.Unlock()
	go s.serveJob(j)
	return j, nil
}

// Close shuts the System's async serving down: subsequent Submits and
// Subscribes fail with ErrJobsClosed, already-accepted jobs — queued
// or running — complete normally (use Cancel to abort them), and every
// live subscription is closed (its streams end with a terminal
// SubscriptionClosed event). A private scheduler is closed with the
// System; a shared scheduler attached with SetScheduler is left
// running for its other Systems, but this System's Asks (and so its
// AskBatches) now fail with ErrJobsClosed as Submit does. Close is
// idempotent, safe to call concurrently with Submit and Ask (the
// shutdown path races them by design), waits only for subscription
// loops (not in-flight jobs or asks), and leaves AskStream and the
// Asks of a System without a shared scheduler untouched.
func (s *System) Close() {
	s.jobs.mu.Lock()
	if s.jobs.closed {
		s.jobs.mu.Unlock()
		return
	}
	s.jobs.closed = true
	if s.jobs.private && s.jobs.sched != nil {
		s.jobs.sched.Close()
	}
	s.jobs.mu.Unlock()
	for _, sub := range s.Subscriptions() {
		sub.closeWith("system closed")
	}
}

// Jobs returns a snapshot of tracked jobs in submission order: every
// queued and running job, plus the most recent finished ones — at
// least maxRetainedJobs of them, at most jobSlack more.
func (s *System) Jobs() []*Job {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	out := make([]*Job, len(s.jobs.jobs))
	copy(out, s.jobs.jobs)
	return out
}

// takeSlot admits a synchronous run on the shared scheduler the
// System is attached to and waits for its slot. It fails as Submit
// does — ErrJobQueueFull, or ErrJobsClosed after Close — or with ctx's
// error if ctx ends while the run is queued. A System without
// SetScheduler runs unadmitted: takeSlot returns a nil claim.
func (s *System) takeSlot(ctx context.Context) (*Scheduler, *claim, error) {
	s.jobs.mu.Lock()
	sc := s.jobs.sched
	if sc == nil || s.jobs.private {
		s.jobs.mu.Unlock()
		return nil, nil, nil
	}
	if s.jobs.closed {
		s.jobs.mu.Unlock()
		return nil, nil, ErrJobsClosed
	}
	cl, err := sc.admit(s.jobs.class)
	s.jobs.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	if err := sc.wait(ctx, cl); err != nil {
		return nil, nil, err
	}
	return sc, cl, nil
}

// ensureSchedulerLocked creates the System's private scheduler on
// first use, with the default limits: GOMAXPROCS run slots and a queue
// of defaultJobQueueDepth. A scheduler attached with SetScheduler
// takes precedence. Callers hold jobs.mu.
func (s *System) ensureSchedulerLocked() {
	if s.jobs.sched != nil {
		return
	}
	s.jobs.sched = NewScheduler(0, 0)
	s.jobs.private = true
}

// pruneJobsLocked drops the oldest finished jobs once the table
// overshoots the retention bound by jobSlack, trimming it back to
// maxRetainedJobs in place and releasing the pruned jobs' contexts.
// In-flight jobs always survive: their combined count is bounded by
// queue depth + run slots, which is far below maxRetainedJobs under
// the defaults.
func (s *System) pruneJobsLocked() {
	if len(s.jobs.jobs) <= maxRetainedJobs+jobSlack {
		return
	}
	excess := len(s.jobs.jobs) - maxRetainedJobs
	kept := s.jobs.jobs[:0]
	for _, j := range s.jobs.jobs {
		if excess > 0 && j.State().terminal() {
			j.cancel()
			excess--
			continue
		}
		kept = append(kept, j)
	}
	clear(s.jobs.jobs[len(kept):])
	s.jobs.jobs = kept
}

// serveJob is a submitted job's goroutine: it waits for the job's run
// slot, then drives the shared event-emitting pipeline on the job's
// own System with the job's event log as the sink.
func (s *System) serveJob(j *Job) {
	if err := j.sched.wait(j.ctx, j.claim); err != nil {
		// The context ended while the job was queued; wait gave up
		// its claim. Job.Cancel may already have finished the job.
		j.mu.Lock()
		if j.state == JobQueued {
			j.finishQueuedLocked(err)
		}
		j.mu.Unlock()
		j.cancel()
		return
	}
	j.mu.Lock()
	if j.state != JobQueued { // cancelled as it was granted; Cancel freed the slot
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.mu.Unlock()

	cfg := newAskConfig(j.opts)
	em := &emitter{query: j.query, observers: cfg.observers, sink: &j.log}
	rep, err := s.run(j.ctx, j.query, cfg, em)
	em.emit(&Done{Report: rep, Err: err})
	// Free the slot before the job turns terminal, so it is free by
	// the time Wait returns; doing both under the job's lock keeps a
	// returned Drain from observing the job still running.
	j.mu.Lock()
	j.sched.release(j.claim)
	j.finishLocked(rep, err)
	j.mu.Unlock()
	// Release the job's context now that the run is over: this
	// unchains it from the Submit parent (no accumulation under a
	// long-lived server ctx) and starts the grace clock for any
	// abandoned Events subscribers.
	j.cancel()
}

// finishQueuedLocked ends a job that never ran with err, recording a
// synthesized terminal event so Events subscribers of a never-run job
// still observe Done.
func (j *Job) finishQueuedLocked(err error) {
	ev := &Done{Err: err}
	ev.Query, ev.Time = j.query, time.Now()
	j.log.add(ev)
	j.finishLocked(nil, err)
}
