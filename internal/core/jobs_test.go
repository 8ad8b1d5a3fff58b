package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"arachnet/internal/registry"
)

// gatedRegistry copies the CS1 subset with one capability held at a
// gate: its step blocks until the gate closes (or the run is
// cancelled), then defers to the original implementation. This pins a
// job mid-run deterministically.
func gatedRegistry(t testing.TB, gate <-chan struct{}) *registry.Registry {
	t.Helper()
	sub, err := BuiltinRegistry().Subset(CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, c := range sub.All() {
		cc := *c
		if cc.Name == "nautilus.links_on_cables" {
			orig := c.Impl
			cc.Impl = func(call *registry.Call) error {
				select {
				case <-gate:
					return orig(call)
				case <-call.Context().Done():
					return call.Context().Err()
				}
			}
		}
		if err := reg.Register(cc); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// awaitState polls until the job reaches the wanted state.
func awaitState(t testing.TB, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %d never reached %s (now %s)", j.ID(), want, j.State())
}

func TestSubmitWaitReport(t *testing.T) {
	env := testEnv(t, false)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() == 0 || j.Query() != queryCS1 {
		t.Errorf("job identity = %d %q", j.ID(), j.Query())
	}
	rep, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Result == nil || len(rep.Result.Outputs) == 0 {
		t.Fatal("job produced no usable report")
	}
	if j.State() != JobDone {
		t.Errorf("state = %s, want %s", j.State(), JobDone)
	}
	found := false
	for _, tracked := range sys.Jobs() {
		if tracked == j {
			found = true
		}
	}
	if !found {
		t.Error("Jobs() lost the submitted job")
	}
}

func TestJobEventsReplayAfterCompletion(t *testing.T) {
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	j, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// A late subscriber replays the full history and still ends with
	// Done + channel close.
	var events []Event
	for ev := range j.Events() {
		events = append(events, ev)
	}
	if len(events) < 10 {
		t.Fatalf("replay saw only %d events", len(events))
	}
	if _, ok := events[len(events)-1].(*Done); !ok {
		t.Errorf("last replayed event is %T, want *Done", events[len(events)-1])
	}
	// Two independent subscribers each get a complete stream.
	n := 0
	for range j.Events() {
		n++
	}
	if n != len(events) {
		t.Errorf("second subscriber saw %d events, first saw %d", n, len(events))
	}
}

func TestJobCancelMidRun(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	env := testEnv(t, false)
	sys, err := NewSystem(env, gatedRegistry(t, gate))
	if err != nil {
		t.Fatal(err)
	}
	j, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	// The gated step must have started before we cancel: watch the
	// live event stream for it.
	for ev := range j.Events() {
		if st, ok := ev.(*StepStarted); ok && st.Capability == "nautilus.links_on_cables" {
			break
		}
	}
	awaitState(t, j, JobRunning)
	j.Cancel()
	rep, err := j.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Elapsed <= 0 {
		t.Error("cancelled job lost its partial report")
	}
	if j.State() != JobCancelled {
		t.Errorf("state = %s, want %s", j.State(), JobCancelled)
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	gate := make(chan struct{})
	env := testEnv(t, false)
	sys, err := NewSystem(env, gatedRegistry(t, gate))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScheduler(NewScheduler(1, 8), ""); err != nil {
		t.Fatal(err)
	}
	blocker, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, blocker, JobRunning)
	queued, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != JobQueued {
		t.Fatalf("second job state = %s with a single busy worker", queued.State())
	}
	queued.Cancel()
	if _, err := queued.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if queued.State() != JobCancelled {
		t.Errorf("state = %s, want %s", queued.State(), JobCancelled)
	}
	// Even a never-run job delivers a terminal Done to subscribers.
	var last Event
	for ev := range queued.Events() {
		last = ev
	}
	done, ok := last.(*Done)
	if !ok || !errors.Is(done.Err, context.Canceled) {
		t.Errorf("terminal event = %#v", last)
	}
	// Release the worker; the blocker must still finish cleanly.
	close(gate)
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitQueueFull(t *testing.T) {
	gate := make(chan struct{})
	env := testEnv(t, false)
	sys, err := NewSystem(env, gatedRegistry(t, gate))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScheduler(NewScheduler(1, 1), ""); err != nil {
		t.Fatal(err)
	}
	running, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, running, JobRunning)
	if _, err := sys.Submit(ctx, queryCS1); err != nil {
		t.Fatalf("queue depth 1 rejected its first waiter: %v", err)
	}
	if _, err := sys.Submit(ctx, queryCS1); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("err = %v, want ErrJobQueueFull", err)
	}
	close(gate)
	for _, j := range sys.Jobs() {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJobTableRetention(t *testing.T) {
	// Past the retention bound the table trims its oldest finished jobs
	// in batches: an in-flight job survives however old it is, the
	// table keeps submission order, and it never grows beyond
	// maxRetainedJobs+jobSlack.
	env := testEnv(t, false)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScheduler(NewScheduler(2, 8), ""); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer closeGate()
	hold := AskObserver(ObserverFunc(func(Event) error {
		<-gate
		return nil
	}))
	pinned, err := sys.Submit(ctx, queryCS1, hold)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, pinned, JobRunning)
	const n = maxRetainedJobs + jobSlack // with the pinned job, one past the bound
	var last *Job
	for i := 0; i < n; i++ {
		j, err := sys.Submit(ctx, queryCS1, AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if got := len(sys.Jobs()); got > maxRetainedJobs+jobSlack {
			t.Fatalf("job table holds %d jobs, bound %d", got, maxRetainedJobs+jobSlack)
		}
		last = j
	}
	jobs := sys.Jobs()
	if len(jobs) != maxRetainedJobs {
		t.Errorf("after the trim the table holds %d jobs, want %d", len(jobs), maxRetainedJobs)
	}
	if jobs[0] != pinned {
		t.Errorf("oldest tracked job is %d, want the in-flight job %d", jobs[0].ID(), pinned.ID())
	}
	if jobs[len(jobs)-1] != last {
		t.Errorf("newest tracked job is %d, want %d", jobs[len(jobs)-1].ID(), last.ID())
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ID() <= jobs[i-1].ID() {
			t.Fatalf("job table out of submission order at %d: %d after %d", i, jobs[i].ID(), jobs[i-1].ID())
		}
	}
	closeGate()
	if _, err := pinned.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSetSchedulerAfterStart(t *testing.T) {
	// The first Submit fixes the System's private scheduler.
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	j, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScheduler(NewScheduler(2, 2), "x"); !errors.Is(err, ErrJobsStarted) {
		t.Errorf("err = %v, want ErrJobsStarted", err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCloseStopsSubmit(t *testing.T) {
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	j, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	// Close returns immediately; the already-accepted job still
	// completes normally.
	sys.Close()
	if rep, err := j.Wait(ctx); err != nil || rep.Result == nil {
		t.Fatalf("accepted job after Close: rep=%v err=%v", rep, err)
	}
	if _, err := sys.Submit(ctx, queryCS1); !errors.Is(err, ErrJobsClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrJobsClosed", err)
	}
	sys.Close() // idempotent
}

func TestCloseWithoutSubmit(t *testing.T) {
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	sys.Close() // no workers ever started; must not panic
	if _, err := sys.Submit(ctx, queryCS1); !errors.Is(err, ErrJobsClosed) {
		t.Errorf("Submit after early Close: err = %v", err)
	}
}

func TestCancelRacingUnrelatedFailureIsDone(t *testing.T) {
	// A job that fails for a real (non-cancellation) reason must be
	// classified JobDone-with-error even when a Cancel raced it.
	rootCause := errors.New("backend offline")
	reg := overriddenRegistry(t, "report.country_rollup", func(*registry.Call) error {
		return rootCause
	})
	env := testEnv(t, false)
	sys, err := NewSystem(env, reg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); !errors.Is(err, rootCause) {
		t.Fatalf("err = %v, want the capability failure", err)
	}
	j.Cancel() // lands after the failure; must not rewrite history
	if j.State() != JobDone {
		t.Errorf("state = %s, want %s (failure, not cancellation)", j.State(), JobDone)
	}
}

func TestSubmitParentContextCancelsJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	env := testEnv(t, false)
	sys, err := NewSystem(env, gatedRegistry(t, gate))
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	j, err := sys.Submit(cctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, j, JobRunning)
	cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via parent ctx", err)
	}
	// Parent-context cancellation is cancellation, not completion.
	if j.State() != JobCancelled {
		t.Errorf("state = %s, want %s", j.State(), JobCancelled)
	}
}
