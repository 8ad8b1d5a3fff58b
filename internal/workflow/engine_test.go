package workflow

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arachnet/internal/registry"
)

// gauge tracks how many slow steps are in flight at once.
type gauge struct {
	active, peak atomic.Int32
}

func (g *gauge) enter() {
	n := g.active.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *gauge) exit() { g.active.Add(-1) }

// slowRegistry registers fan-out sources that block long enough to
// overlap, plus a sum step depending on both.
func slowRegistry(t testing.TB, g *gauge, d time.Duration) *registry.Registry {
	t.Helper()
	r := registry.New()
	slow := func(v int) registry.Func {
		return func(c *registry.Call) error {
			g.enter()
			defer g.exit()
			select {
			case <-time.After(d):
			case <-c.Context().Done():
				return c.Context().Err()
			}
			c.Out["n"] = v
			return nil
		}
	}
	r.MustRegister(registry.Capability{
		Name: "slow.left", Framework: "slow", Description: "left source",
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl:    slow(1),
	})
	r.MustRegister(registry.Capability{
		Name: "slow.right", Framework: "slow", Description: "right source",
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl:    slow(2),
	})
	r.MustRegister(registry.Capability{
		Name: "slow.sum", Framework: "slow", Description: "sum two numbers",
		Inputs: []registry.Port{
			{Name: "a", Type: registry.TInt},
			{Name: "b", Type: registry.TInt},
		},
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl: func(c *registry.Call) error {
			a, _ := c.Input("a")
			b, _ := c.Input("b")
			c.Out["n"] = a.(int) + b.(int)
			return nil
		},
	})
	return r
}

func diamond() *Workflow {
	return &Workflow{
		Name: "diamond",
		Steps: []Step{
			{ID: "l", Capability: "slow.left"},
			{ID: "r", Capability: "slow.right"},
			{ID: "s", Capability: "slow.sum", Inputs: Inputs{
				{"a", Ref("l", "n")},
				{"b", Ref("r", "n")},
			}},
		},
		Outputs: map[string]string{"sum": "s.n"},
	}
}

func TestIndependentStepsOverlap(t *testing.T) {
	var g gauge
	reg := slowRegistry(t, &g, 40*time.Millisecond)
	eng := NewEngine(reg, nil, WithParallelism(2))
	res, err := eng.Run(context.Background(), diamond())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["sum"] != 3 {
		t.Errorf("sum = %v", res.Outputs["sum"])
	}
	if p := g.peak.Load(); p != 2 {
		t.Errorf("peak concurrency = %d, want 2 (independent steps must overlap)", p)
	}
	if len(res.Steps) != 3 || res.Steps[0].ID != "l" || res.Steps[2].ID != "s" {
		t.Errorf("step stats not in workflow order: %+v", res.Steps)
	}
}

func TestParallelismOneIsSequential(t *testing.T) {
	var g gauge
	reg := slowRegistry(t, &g, 10*time.Millisecond)
	eng := NewEngine(reg, nil, WithParallelism(1))
	if _, err := eng.Run(context.Background(), diamond()); err != nil {
		t.Fatal(err)
	}
	if p := g.peak.Load(); p != 1 {
		t.Errorf("peak concurrency = %d under WithParallelism(1)", p)
	}
}

func TestCancellationAbortsMidWorkflow(t *testing.T) {
	var g gauge
	reg := slowRegistry(t, &g, 10*time.Second) // blocks until cancelled
	eng := NewEngine(reg, nil, WithParallelism(2))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := eng.Run(ctx, diamond())
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("run did not abort promptly on cancellation")
	}
	// The dependent sum step must never have started.
	for _, s := range res.Steps {
		if s.ID == "s" {
			t.Error("dependent step ran despite cancellation")
		}
	}
}

func TestDeadlineAborts(t *testing.T) {
	var g gauge
	reg := slowRegistry(t, &g, 10*time.Second)
	eng := NewEngine(reg, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := eng.Run(ctx, diamond())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded in chain", err)
	}
}

func TestStepErrorTyped(t *testing.T) {
	reg := buildTestRegistry(t)
	w := &Workflow{Name: "failing", Steps: []Step{{ID: "f", Capability: "test.fail"}}}
	_, err := NewEngine(reg, nil).Run(context.Background(), w)
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *StepError", err, err)
	}
	if se.Step != "f" || se.Capability != "test.fail" {
		t.Errorf("StepError fields = %+v", se)
	}
}

func TestFailureStopsNewSteps(t *testing.T) {
	r := registry.New()
	r.MustRegister(registry.Capability{
		Name: "t.boom", Framework: "t", Description: "fails",
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl:    func(c *registry.Call) error { return errors.New("boom") },
	})
	r.MustRegister(registry.Capability{
		Name: "t.after", Framework: "t", Description: "depends on boom",
		Inputs:  []registry.Port{{Name: "n", Type: registry.TInt}},
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl: func(c *registry.Call) error {
			c.Out["n"] = 0
			return nil
		},
	})
	w := &Workflow{Name: "failfast", Steps: []Step{
		{ID: "a", Capability: "t.boom"},
		{ID: "b", Capability: "t.after", Inputs: Inputs{{"n", Ref("a", "n")}}},
	}}
	res, err := NewEngine(r, nil).Run(context.Background(), w)
	if err == nil {
		t.Fatal("want error")
	}
	if len(res.Steps) != 1 {
		t.Errorf("dependent step ran after failure: %+v", res.Steps)
	}
}

func TestBindingValidateAmbiguous(t *testing.T) {
	b := Binding{Literal: 7, Ref: "x.n"}
	if err := b.Validate(); !errors.Is(err, ErrAmbiguousBinding) {
		t.Errorf("Validate() = %v, want ErrAmbiguousBinding", err)
	}
	if err := Lit(7).Validate(); err != nil {
		t.Errorf("literal binding rejected: %v", err)
	}
	if err := Ref("x", "n").Validate(); err != nil {
		t.Errorf("ref binding rejected: %v", err)
	}
	// And workflow validation must surface it.
	reg := buildTestRegistry(t)
	w := pipeline()
	w.Steps[1].Inputs[0].Binding = Binding{Literal: 7, Ref: "src.n"}
	if err := w.Validate(reg); !errors.Is(err, ErrAmbiguousBinding) {
		t.Errorf("workflow Validate = %v, want ErrAmbiguousBinding", err)
	}
}

func TestPanickingCapabilityFailsStep(t *testing.T) {
	r := registry.New()
	r.MustRegister(registry.Capability{
		Name: "t.panic", Framework: "t", Description: "panics",
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl:    func(c *registry.Call) error { panic("kaboom") },
	})
	w := &Workflow{Name: "panicky", Steps: []Step{{ID: "p", Capability: "t.panic"}}}
	res, err := NewEngine(r, nil).Run(context.Background(), w)
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *StepError", err, err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic value lost: %v", err)
	}
	if len(res.Steps) != 1 || res.Steps[0].Err == nil {
		t.Error("panicked step not recorded")
	}
}

// recordingObserver logs step events; safe only for single-Run use,
// matching the engine's serialized observer contract.
type recordingObserver struct {
	started  []string
	finished []StepStat
}

func (r *recordingObserver) StepStarted(id, capability string) {
	r.started = append(r.started, id+"/"+capability)
}

func (r *recordingObserver) StepFinished(stat StepStat) {
	r.finished = append(r.finished, stat)
}

func TestObserverSeesEveryStep(t *testing.T) {
	var g gauge
	reg := slowRegistry(t, &g, time.Millisecond)
	obs := &recordingObserver{}
	eng := NewEngine(reg, nil, WithParallelism(2))
	if _, err := eng.RunCompiled(context.Background(), mustCompile(t, diamond(), reg), obs); err != nil {
		t.Fatal(err)
	}
	if len(obs.started) != 3 || len(obs.finished) != 3 {
		t.Fatalf("observer saw %d starts / %d finishes, want 3/3", len(obs.started), len(obs.finished))
	}
	// The dependent sum step must start last and finish last.
	if obs.started[2] != "s/slow.sum" {
		t.Errorf("start order = %v", obs.started)
	}
	if last := obs.finished[2]; last.ID != "s" || last.Err != nil || last.Duration <= 0 {
		t.Errorf("final finish = %+v", last)
	}
}

func TestObserverSeesFailure(t *testing.T) {
	reg := buildTestRegistry(t)
	obs := &recordingObserver{}
	w := &Workflow{Name: "failing", Steps: []Step{{ID: "f", Capability: "test.fail"}}}
	_, err := NewEngine(reg, nil).RunCompiled(context.Background(), mustCompile(t, w, reg), obs)
	if err == nil {
		t.Fatal("want error")
	}
	if len(obs.finished) != 1 || obs.finished[0].Err == nil {
		t.Fatalf("failure not observed: %+v", obs.finished)
	}
}

func TestObserverSeesContractViolation(t *testing.T) {
	// A capability that "succeeds" without producing its declared
	// output must be reported to observers as a failed step.
	r := registry.New()
	r.MustRegister(registry.Capability{
		Name: "t.hollow", Framework: "t", Description: "forgets its output",
		Outputs: []registry.Port{{Name: "n", Type: registry.TInt}},
		Impl:    func(c *registry.Call) error { return nil },
	})
	obs := &recordingObserver{}
	w := &Workflow{Name: "hollow", Steps: []Step{{ID: "h", Capability: "t.hollow"}}}
	_, err := NewEngine(r, nil).RunCompiled(context.Background(), mustCompile(t, w, r), obs)
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *StepError", err)
	}
	if len(obs.finished) != 1 || obs.finished[0].Err == nil {
		t.Errorf("contract violation not surfaced to observer: %+v", obs.finished)
	}
	if !strings.Contains(obs.finished[0].Err.Error(), "did not produce") {
		t.Errorf("observed err = %v", obs.finished[0].Err)
	}
}

func TestObserverCancelAbortsRun(t *testing.T) {
	// Observers cannot veto directly; the documented idiom is
	// cancelling the run's context from the observer.
	var g gauge
	reg := slowRegistry(t, &g, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &recordingObserver{}
	eng := NewEngine(reg, nil, WithParallelism(1))
	_, err := eng.RunCompiled(ctx, mustCompile(t, diamond(), reg), funcObserver{
		onStarted: obs.StepStarted,
		onFinished: func(stat StepStat) {
			obs.StepFinished(stat)
			cancel()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation after the first completion must stop the dependent
	// step from ever starting.
	for _, s := range obs.started {
		if s == "s/slow.sum" {
			t.Error("dependent step started after observer cancellation")
		}
	}
}

// mustCompile compiles w against reg for tests that run with an
// observer, which RunCompiled takes per run.
func mustCompile(t *testing.T, w *Workflow, reg *registry.Registry) *CompiledPlan {
	t.Helper()
	cp, err := Compile(w, reg)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// funcObserver adapts closures for single-purpose observer tests.
type funcObserver struct {
	onStarted  func(id, capability string)
	onFinished func(stat StepStat)
}

func (f funcObserver) StepStarted(id, capability string) {
	if f.onStarted != nil {
		f.onStarted(id, capability)
	}
}

func (f funcObserver) StepFinished(stat StepStat) {
	if f.onFinished != nil {
		f.onFinished(stat)
	}
}

func TestDottedStepIDRejected(t *testing.T) {
	// Refs are "stepID.port": a dotted ID would corrupt the engine's
	// dependency graph, so validation must reject it.
	reg := buildTestRegistry(t)
	w := pipeline()
	w.Steps[0].ID = "src.one"
	if err := w.Validate(reg); err == nil || !strings.Contains(err.Error(), "must not contain") {
		t.Errorf("dotted step id accepted: %v", err)
	}
}
