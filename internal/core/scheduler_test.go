package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// schedSystem builds a System attached to sched under class, backed by
// a gated CS1 registry (see gatedRegistry).
func schedSystem(t testing.TB, sched *Scheduler, class string, gate <-chan struct{}) *System {
	t.Helper()
	sys, err := NewSystem(testEnv(t, false), gatedRegistry(t, gate))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScheduler(sched, class); err != nil {
		t.Fatal(err)
	}
	return sys
}

// doneRecorder returns an AskOption that appends tag to order when the
// run's terminal Done event fires. With a single slot, completion order
// is grant order.
func doneRecorder(mu *sync.Mutex, order *[]string, tag string) AskOption {
	return AskObserver(ObserverFunc(func(ev Event) error {
		if _, ok := ev.(*Done); ok {
			mu.Lock()
			*order = append(*order, tag)
			mu.Unlock()
		}
		return nil
	}))
}

// awaitQueued polls until class has n runs waiting for a slot.
func awaitQueued(t testing.TB, sched *Scheduler, class string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sched.Stats().Classes[class].Queued == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("class %q never reached %d queued (now %d)", class, n, sched.Stats().Classes[class].Queued)
}

func TestSchedulerWeightedFairOrder(t *testing.T) {
	// One slot, two classes at weight 2:1. A plug job pins the slot
	// while a backlog accumulates in both classes; once released, stride
	// scheduling must interleave grants 2:1. Weights of 1 and 2 keep
	// every pass value an exact float, so the order is fully
	// deterministic (ties break by class name). Class b's backlog is
	// either submitted jobs or synchronous Asks, each waiting on its own
	// goroutine: both take their slots from the same queue.
	for _, tc := range []struct {
		name  string
		syncB bool
	}{{"submitted", false}, {"synchronous", true}} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			sched := NewScheduler(1, 32)
			sched.SetClass("a", ClassConfig{Weight: 2})
			sched.SetClass("b", ClassConfig{Weight: 1})
			sysA := schedSystem(t, sched, "a", gate)
			sysB := schedSystem(t, sched, "b", gate)

			plug, err := sysA.Submit(ctx, queryCS1)
			if err != nil {
				t.Fatal(err)
			}
			awaitState(t, plug, JobRunning)

			var mu sync.Mutex
			var order []string
			var jobs []*Job
			for i := 0; i < 6; i++ {
				j, err := sysA.Submit(ctx, queryCS1, doneRecorder(&mu, &order, "a"))
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			var asks sync.WaitGroup
			for i := 0; i < 3; i++ {
				if !tc.syncB {
					j, err := sysB.Submit(ctx, queryCS1, doneRecorder(&mu, &order, "b"))
					if err != nil {
						t.Fatal(err)
					}
					jobs = append(jobs, j)
					continue
				}
				asks.Add(1)
				go func() {
					defer asks.Done()
					if _, err := sysB.Ask(ctx, queryCS1, doneRecorder(&mu, &order, "b")); err != nil {
						t.Error(err)
					}
				}()
				awaitQueued(t, sched, "b", i+1)
			}
			close(gate)
			if _, err := plug.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if _, err := j.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
			asks.Wait()
			mu.Lock()
			got := strings.Join(order, "")
			mu.Unlock()
			// After the plug advanced a's pass by one stride, b starts
			// behind and the 2:1 cadence repeats exactly.
			if want := "baabaabaa"; got != want {
				t.Errorf("grant order = %q, want %q", got, want)
			}
			st := sched.Stats()
			if st.Classes["a"].Served != 7 || st.Classes["b"].Served != 3 {
				t.Errorf("served a=%d b=%d, want 7/3", st.Classes["a"].Served, st.Classes["b"].Served)
			}
		})
	}
}

func TestSchedulerMaxRunningCap(t *testing.T) {
	// Four workers, but the capped class may only run one job at a time;
	// its surplus stays queued while another class uses the idle workers.
	gate := make(chan struct{})
	sched := NewScheduler(4, 32)
	sched.SetClass("capped", ClassConfig{MaxRunning: 1})
	capped := schedSystem(t, sched, "capped", gate)
	free := schedSystem(t, sched, "free", gate)

	var cappedJobs []*Job
	for i := 0; i < 3; i++ {
		j, err := capped.Submit(ctx, queryCS1)
		if err != nil {
			t.Fatal(err)
		}
		cappedJobs = append(cappedJobs, j)
	}
	awaitState(t, cappedJobs[0], JobRunning)
	st := sched.Stats()
	if cs := st.Classes["capped"]; cs.Running != 1 || cs.Queued != 2 {
		t.Errorf("capped class running=%d queued=%d, want 1/2", cs.Running, cs.Queued)
	}

	// The cap must not freeze the pool: a job in the other class gets a
	// worker while the capped class holds its single slot.
	fj, err := free.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, fj, JobRunning)

	close(gate)
	for _, j := range append(cappedJobs, fj) {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if st := sched.Stats(); st.Classes["capped"].Served != 3 {
		t.Errorf("capped served = %d, want 3", st.Classes["capped"].Served)
	}
}

func TestSchedulerPerClassQueueBound(t *testing.T) {
	// With the single slot pinned, class "small" may queue one job.
	// When that waiter is cancelled instead, it must give its place
	// back: nothing stays queued and the next Submit is admitted in
	// its stead.
	for _, tc := range []struct {
		name         string
		cancelWaiter bool
	}{{"waiter kept", false}, {"waiter cancelled", true}} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			defer close(gate)
			sched := NewScheduler(1, 32)
			sched.SetClass("small", ClassConfig{MaxQueued: 1})
			small := schedSystem(t, sched, "small", gate)
			other := schedSystem(t, sched, "other", gate)

			plug, err := small.Submit(ctx, queryCS1)
			if err != nil {
				t.Fatal(err)
			}
			awaitState(t, plug, JobRunning)
			waiter, err := small.Submit(ctx, queryCS1)
			if err != nil {
				t.Fatalf("first waiter within MaxQueued refused: %v", err)
			}
			if tc.cancelWaiter {
				waiter.Cancel()
				if _, err := waiter.Wait(ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
				}
				if st := sched.Stats(); st.Queued != 0 {
					t.Fatalf("queued = %d after the waiter was cancelled, want 0", st.Queued)
				}
				if _, err := small.Submit(ctx, queryCS1); err != nil {
					t.Fatalf("Submit after cancelling the queued waiter: %v", err)
				}
			}
			if _, err := small.Submit(ctx, queryCS1); !errors.Is(err, ErrJobQueueFull) {
				t.Fatalf("err = %v, want ErrJobQueueFull past the class bound", err)
			}
			// The bound is per class: the other class still has the whole
			// global depth available.
			if _, err := other.Submit(ctx, queryCS1); err != nil {
				t.Fatalf("other class refused by small's bound: %v", err)
			}
			st := sched.Stats()
			if st.Shed != 1 || st.Classes["small"].Shed != 1 || st.Classes["other"].Shed != 0 {
				t.Errorf("shed global=%d small=%d other=%d, want 1/1/0",
					st.Shed, st.Classes["small"].Shed, st.Classes["other"].Shed)
			}
		})
	}
}

func TestSchedulerSyncAskCancelledWhileQueued(t *testing.T) {
	// A synchronous Ask waiting for the only slot gives its place back
	// when its context ends: it returns context.Canceled, nothing stays
	// queued, and a following Drain returns once the plug finishes.
	gate := make(chan struct{})
	sched := NewScheduler(1, 8)
	sys := schedSystem(t, sched, "t", gate)

	plug, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, plug, JobRunning)
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := sys.Ask(actx, queryCS1)
		errc <- err
	}()
	awaitQueued(t, sched, "t", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Ask: err = %v, want context.Canceled", err)
	}
	if st := sched.Stats(); st.Queued != 0 {
		t.Errorf("queued = %d after the waiting Ask was cancelled, want 0", st.Queued)
	}

	close(gate)
	dctx, dcancel := context.WithTimeout(ctx, 30*time.Second)
	defer dcancel()
	if err := sched.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := plug.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerConcurrentAdmission(t *testing.T) {
	// Synchronous Asks, submitted jobs and cancellations race for two
	// slots from several goroutines; every run either completes, is
	// shed or is cancelled, and the scheduler ends empty. Run with
	// -race.
	open := make(chan struct{})
	close(open)
	sched := NewScheduler(2, 4)
	sched.SetClass("a", ClassConfig{Weight: 2, MaxRunning: 1})
	sysA := schedSystem(t, sched, "a", open)
	sysB := schedSystem(t, sched, "b", open)
	tolerated := func(err error) bool {
		return err == nil || errors.Is(err, ErrJobQueueFull) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		sys := sysA
		if g%2 == 1 {
			sys = sysB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				switch i % 3 {
				case 0:
					if _, err := sys.Ask(ctx, queryCS1); !tolerated(err) {
						t.Errorf("Ask: %v", err)
					}
				case 1:
					actx, cancel := context.WithTimeout(ctx, time.Duration(i)*50*time.Microsecond)
					if _, err := sys.Ask(actx, queryCS1); !tolerated(err) {
						t.Errorf("Ask with deadline: %v", err)
					}
					cancel()
				case 2:
					j, err := sys.Submit(ctx, queryCS1)
					if err != nil {
						if !tolerated(err) {
							t.Errorf("Submit: %v", err)
						}
						continue
					}
					if g < 2 {
						j.Cancel()
					}
					if _, err := j.Wait(ctx); !tolerated(err) {
						t.Errorf("job: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := sched.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := sched.Stats(); st.Queued != 0 || st.Running != 0 {
		t.Errorf("post-drain stats queued=%d running=%d", st.Queued, st.Running)
	}
}

func TestSchedulerGlobalDepthShared(t *testing.T) {
	// The global depth bounds the sum across classes: with depth 1 a
	// waiter from one class locks out every other class too.
	gate := make(chan struct{})
	defer close(gate)
	sched := NewScheduler(1, 1)
	sysA := schedSystem(t, sched, "a", gate)
	sysB := schedSystem(t, sched, "b", gate)

	plug, err := sysA.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, plug, JobRunning)
	if _, err := sysA.Submit(ctx, queryCS1); err != nil {
		t.Fatal(err)
	}
	if _, err := sysB.Submit(ctx, queryCS1); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("err = %v, want ErrJobQueueFull at global depth", err)
	}
}

func TestSchedulerDrain(t *testing.T) {
	gate := make(chan struct{})
	sched := NewScheduler(2, 8)
	sys := schedSystem(t, sched, "t", gate)

	j1, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, j1, JobRunning)
	awaitState(t, j2, JobRunning)

	// With both jobs pinned at the gate, a bounded Drain must time out.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := sched.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain on a busy scheduler: err = %v", err)
	}

	close(gate)
	long, cancel2 := context.WithTimeout(ctx, 30*time.Second)
	defer cancel2()
	if err := sched.Drain(long); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	st := sched.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("post-drain stats queued=%d running=%d", st.Queued, st.Running)
	}
	if j1.State() != JobDone || j2.State() != JobDone {
		t.Errorf("drained jobs in states %s/%s", j1.State(), j2.State())
	}
}

func TestSchedulerCloseStopsAdmission(t *testing.T) {
	sched := NewScheduler(1, 8)
	sys := schedSystem(t, sched, "t", nil)
	sched.Close()
	sched.Close() // idempotent
	if _, err := sys.Submit(ctx, queryCS1); !errors.Is(err, ErrJobsClosed) {
		t.Fatalf("Submit on closed scheduler: err = %v", err)
	}
}

func TestSetSchedulerErrors(t *testing.T) {
	env := testEnv(t, false)
	sys, _ := NewSystem(env, nil)
	if err := sys.SetScheduler(nil, "x"); err == nil {
		t.Error("nil scheduler accepted")
	}
	sched := NewScheduler(1, 8)
	if err := sys.SetScheduler(sched, "x"); err != nil {
		t.Fatal(err)
	}
	// A second attach conflicts with the attached scheduler.
	if err := sys.SetScheduler(NewScheduler(1, 8), "y"); !errors.Is(err, ErrJobsStarted) {
		t.Errorf("re-attach: err = %v, want ErrJobsStarted", err)
	}
	j, err := sys.Submit(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if j.Class() != "x" {
		t.Errorf("job class = %q, want %q", j.Class(), "x")
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCloseConcurrentWithSubmit(t *testing.T) {
	// Regression: Close must be idempotent and safe while Submits race
	// it from other goroutines — every Submit either succeeds (and the
	// accepted job completes) or fails with ErrJobsClosed; nothing
	// panics or deadlocks. Run with -race.
	env := testEnv(t, false)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []*Job
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				j, err := sys.Submit(ctx, queryCS1)
				switch {
				case err == nil:
					mu.Lock()
					accepted = append(accepted, j)
					mu.Unlock()
				case errors.Is(err, ErrJobsClosed):
					return
				default:
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			sys.Close()
		}()
	}
	wg.Wait()
	sys.Close() // idempotent after the race
	if _, err := sys.Submit(ctx, queryCS1); !errors.Is(err, ErrJobsClosed) {
		t.Fatalf("Submit after Close: err = %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for _, j := range accepted {
		if _, err := j.Wait(wctx); err != nil {
			t.Fatalf("accepted job %d: %v", j.ID(), err)
		}
	}
}
