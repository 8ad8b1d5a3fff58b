package workflow

// Replay-memo contract: the fully cached replays of one compiled plan
// share one Result for as long as the cache serves every step the very
// output map the memo was built from. Any other replay runs the
// ordinary loop, and either way the observer and the cache see the
// same calls as a replay with no memo.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// replayRig is a pure diamond over memoRegistry — d1 and d2 feed s,
// which feeds t — with one quality check, compiled once and run by one
// caching engine.
type replayRig struct {
	calls   map[string]*atomic.Int64
	asserts atomic.Int64 // quality-check evaluations
	cache   *mapCache
	eng     *Engine
	cp      *CompiledPlan
}

func newReplayRig(t testing.TB) *replayRig {
	t.Helper()
	rg := &replayRig{calls: map[string]*atomic.Int64{}, cache: newMapCache()}
	reg := memoRegistry(t, rg.calls)
	rg.eng = NewEngine(reg, nil, WithCache(rg.cache, "env"), WithParallelism(2))
	cp, err := Compile(rg.workflow(), reg)
	if err != nil {
		t.Fatal(err)
	}
	rg.cp = cp
	return rg
}

func (rg *replayRig) workflow() *Workflow {
	return &Workflow{
		Name: "replay",
		Steps: []Step{
			{ID: "d1", Capability: "memo.double", Inputs: Inputs{{"n", Lit(21)}}},
			{ID: "d2", Capability: "memo.double", Inputs: Inputs{{"n", Lit(5)}}},
			{ID: "s", Capability: "memo.add", Inputs: Inputs{{"a", Ref("d1", "n")}, {"b", Ref("d2", "n")}}},
			{ID: "t", Capability: "memo.double", Inputs: Inputs{{"n", Ref("s", "n")}}},
		},
		Outputs: map[string]string{"out": "t.n"},
		Checks: []QualityCheck{{
			Name: "positive", Kind: CheckSanity, Ref: "t.n",
			Assert: func(v any) (bool, string) {
				rg.asserts.Add(1)
				return v.(int) > 0, "t.n > 0"
			},
		}},
	}
}

// run replays the rig's plan once, failing the test on an error.
func (rg *replayRig) run(t testing.TB, obs Observer) *Result {
	t.Helper()
	res, err := rg.eng.RunCompiled(context.Background(), rg.cp, obs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rebuilt replays a fresh compilation of the rig's workflow, which has
// no memo, over the rig's cache.
func (rg *replayRig) rebuilt(t *testing.T, obs Observer) *Result {
	t.Helper()
	res, err := rg.eng.RunCompiled(context.Background(), mustCompile(t, rg.workflow(), rg.eng.reg), obs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// executed counts the capability calls so far.
func (rg *replayRig) executed() int64 {
	n := int64(0)
	for _, c := range rg.calls {
		n += c.Load()
	}
	return n
}

// key is step id's cache key.
func (rg *replayRig) key(id string) string {
	return rg.cp.fingerprintsFor(rg.eng)[rg.cp.index[id]]
}

// memoized runs the plan until it serves a memo: a run that executes,
// a first fully cached run, and a second that stores the memo, whose
// Result it returns.
func (rg *replayRig) memoized(t *testing.T) *Result {
	t.Helper()
	rg.run(t, nil)
	rg.run(t, nil)
	if rg.cp.replay.Load() != nil {
		t.Fatal("the first fully cached run stored a memo")
	}
	res := rg.run(t, nil)
	if rg.cp.replay.Load() == nil {
		t.Fatal("the second fully cached run stored no memo")
	}
	return res
}

func cachedSteps(res *Result) int {
	n := 0
	for _, st := range res.Steps {
		if st.Cached {
			n++
		}
	}
	return n
}

// TestReplayMemoSharesOneResult: the third replay returns the second's
// Result without evaluating a quality check, and that Result is what a
// replay with no memo builds.
func TestReplayMemoSharesOneResult(t *testing.T) {
	rg := newReplayRig(t)
	second := rg.memoized(t)
	asserts := rg.asserts.Load()
	third := rg.run(t, nil)
	if third != second {
		t.Fatalf("third replay returned a new Result %p, want the second's %p", third, second)
	}
	if n := rg.asserts.Load(); n != asserts {
		t.Errorf("a memo hit evaluated %d quality checks", n-asserts)
	}
	if want := rg.rebuilt(t, nil); !reflect.DeepEqual(third, want) {
		t.Errorf("memoized Result %+v, a replay with no memo builds %+v", third, want)
	}
	if got := third.Outputs["out"]; got != 104 {
		t.Errorf("out = %v, want 104", got)
	}
}

// TestReplayMemoFollowsTheCache: a replay after a step's entry was
// evicted, or replaced by another map, must not return the memo; it
// executes what the cache lost and serves what the cache holds.
func TestReplayMemoFollowsTheCache(t *testing.T) {
	t.Run("evicted", func(t *testing.T) {
		rg := newReplayRig(t)
		memo := rg.memoized(t)
		rg.cache.mu.Lock()
		delete(rg.cache.m, rg.key("s"))
		rg.cache.mu.Unlock()
		adds := rg.calls["memo.add"].Load()
		res := rg.run(t, nil)
		if res == memo {
			t.Fatal("served the memo although the cache dropped step s")
		}
		if n := rg.calls["memo.add"].Load() - adds; n != 1 {
			t.Errorf("step s executed %d times, want 1", n)
		}
		if n := cachedSteps(res); n != 3 {
			t.Errorf("%d cached steps, want 3 (all but s)", n)
		}
		// s now holds the map this run stored: the next replay is
		// fully cached on another map, so it builds a new memo, which
		// the one after serves.
		next := rg.run(t, nil)
		if next == memo || next == res || cachedSteps(next) != 4 {
			t.Fatalf("replay after re-execution: %p (memo %p, previous %p), %d cached steps", next, memo, res, cachedSteps(next))
		}
		if again := rg.run(t, nil); again != next {
			t.Errorf("the rebuilt memo was not served")
		}
	})
	t.Run("flushed", func(t *testing.T) {
		rg := newReplayRig(t)
		memo := rg.memoized(t)
		rg.cache.mu.Lock()
		clear(rg.cache.m)
		rg.cache.mu.Unlock()
		res := rg.run(t, nil)
		if res == memo || cachedSteps(res) != 0 {
			t.Fatalf("replay over an empty cache: %p (memo %p), %d cached steps", res, memo, cachedSteps(res))
		}
		if !reflect.DeepEqual(res.Values, memo.Values) {
			t.Errorf("values %v, want %v", res.Values, memo.Values)
		}
	})
	t.Run("replaced", func(t *testing.T) {
		rg := newReplayRig(t)
		memo := rg.memoized(t)
		// An equal map is still another map: the memo holds the values
		// of the one the cache dropped.
		rg.cache.Put(rg.key("d2"), map[string]any{"n": 10})
		rg.cache.Put(rg.key("t"), map[string]any{"n": 1000})
		executed := rg.executed()
		res := rg.run(t, nil)
		if res == memo {
			t.Fatal("served the memo although the cache holds other maps")
		}
		if got := res.Outputs["out"]; got != 1000 {
			t.Errorf("out = %v, want 1000, the value the cache holds", got)
		}
		if cachedSteps(res) != 4 {
			t.Errorf("%d cached steps, want 4", cachedSteps(res))
		}
		if n := rg.executed() - executed; n != 0 {
			t.Errorf("%d steps executed, want 0", n)
		}
		if again := rg.run(t, nil); again != res {
			t.Errorf("the fully cached replay on the new maps did not become the memo")
		}
	})
}

// TestReplayMemoObservedLikeAnyReplay: a memo hit, a replay that
// leaves the memo partway and a replay with no memo report the same
// calls to their observers, in the same order.
func TestReplayMemoObservedLikeAnyReplay(t *testing.T) {
	rg := newReplayRig(t)
	memo := rg.memoized(t)
	var want recordingObserver
	rg.rebuilt(t, &want)
	if len(want.started) != 4 || len(want.finished) != 4 {
		t.Fatalf("a replay with no memo observed %d starts and %d finishes, want 4 and 4", len(want.started), len(want.finished))
	}
	var hit recordingObserver
	if rg.run(t, &hit) != memo {
		t.Fatal("no memo hit")
	}
	rg.cache.Put(rg.key("s"), map[string]any{"n": 52})
	var left recordingObserver
	if rg.run(t, &left) == memo {
		t.Fatal("served the memo over a replaced map")
	}
	for _, got := range []struct {
		label string
		obs   *recordingObserver
	}{{"memo hit", &hit}, {"memo left at step s", &left}} {
		if !reflect.DeepEqual(got.obs.started, want.started) || !reflect.DeepEqual(got.obs.finished, want.finished) {
			t.Errorf("%s observed %v %+v, a replay with no memo %v %+v", got.label,
				got.obs.started, got.obs.finished, want.started, want.finished)
		}
	}
}

// TestReplayMemoOneGetPerStep: a memo hit reads each step from the
// cache once, and so does a replay that leaves the memo partway — it
// continues without reading the steps it already read again.
func TestReplayMemoOneGetPerStep(t *testing.T) {
	rg := newReplayRig(t)
	rg.memoized(t)
	counts := func() (int64, int64, int64) { return rg.cache.gets.Load(), rg.cache.hits.Load(), rg.cache.puts.Load() }
	check := func(label string, wantGets, wantHits, wantPuts int64) {
		t.Helper()
		g0, h0, p0 := counts()
		rg.run(t, nil)
		g, h, p := counts()
		if g-g0 != wantGets || h-h0 != wantHits || p-p0 != wantPuts {
			t.Errorf("%s: %d gets, %d hits, %d puts; want %d, %d, %d", label, g-g0, h-h0, p-p0, wantGets, wantHits, wantPuts)
		}
	}
	check("memo hit", 4, 4, 0)
	rg.cache.mu.Lock()
	delete(rg.cache.m, rg.key("s"))
	rg.cache.mu.Unlock()
	check("memo left at an evicted step", 4, 3, 1)
	check("memo left at a re-stored step", 4, 4, 0)
	check("rebuilt memo hit", 4, 4, 0)
}

// TestReplayMemoNotServedOnceCancelled: a replay whose context ends
// before or during the run returns the context's error and the steps
// it settled, as a replay with no memo does, never the memo.
func TestReplayMemoNotServedOnceCancelled(t *testing.T) {
	rg := newReplayRig(t)
	memo := rg.memoized(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := rg.eng.RunCompiled(ctx, rg.cp, nil)
	if !errors.Is(err, context.Canceled) || res == memo || len(res.Steps) != 0 {
		t.Fatalf("replay under a cancelled context: %v, %p (memo %p), %d steps", err, res, memo, len(res.Steps))
	}

	// Cancelled by the observer at the first step's completion: the
	// ready sibling d2 never starts.
	cancelAt := func(cp *CompiledPlan) (*Result, error, []string) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var started []string
		res, err := rg.eng.RunCompiled(ctx, cp, funcObserver{
			onStarted:  func(id, _ string) { started = append(started, id) },
			onFinished: func(StepStat) { cancel() },
		})
		return res, err, started
	}
	res, err, started := cancelAt(rg.cp)
	if !errors.Is(err, context.Canceled) || res == memo {
		t.Fatalf("replay cancelled at a step: %v, %p (memo %p)", err, res, memo)
	}
	want, wantErr, wantStarted := cancelAt(mustCompile(t, rg.workflow(), rg.eng.reg))
	if err.Error() != wantErr.Error() || !reflect.DeepEqual(res, want) || !reflect.DeepEqual(started, wantStarted) {
		t.Errorf("cancelled memo replay: %v, %+v, started %v; with no memo: %v, %+v, started %v",
			err, res, started, wantErr, want, wantStarted)
	}
	if again := rg.run(t, nil); again != memo {
		t.Errorf("an uncancelled replay after the cancelled ones did not serve the memo")
	}
}

// TestConcurrentReplaysShareTheMemo replays one plan from several
// goroutines while another keeps replacing and evicting cache entries,
// so memo hits, memo rebuilds and partial replays interleave; run it
// under -race. Every replay must return the one answer.
func TestConcurrentReplaysShareTheMemo(t *testing.T) {
	rg := newReplayRig(t)
	rg.memoized(t)
	want := rg.rebuilt(t, nil)
	keys := []string{rg.key("d1"), rg.key("d2"), rg.key("s"), rg.key("t")}
	const replayers, replays = 6, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := keys[i%len(keys)]
			if i%3 == 0 {
				rg.cache.mu.Lock()
				delete(rg.cache.m, k)
				rg.cache.mu.Unlock()
				continue
			}
			// Another map with the same content.
			if out, ok := rg.cache.Get(k); ok {
				rg.cache.Put(k, map[string]any{"n": out["n"]})
			}
		}
	}()
	errs := make(chan error, replayers)
	var rw sync.WaitGroup
	for g := 0; g < replayers; g++ {
		rw.Add(1)
		go func() {
			defer rw.Done()
			for r := 0; r < replays; r++ {
				res, err := rg.eng.RunCompiled(context.Background(), rg.cp, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Values, want.Values) || !reflect.DeepEqual(res.Outputs, want.Outputs) ||
					!reflect.DeepEqual(res.Checks, want.Checks) || len(res.Steps) != 4 || len(res.Provenance) != 5 {
					errs <- errors.New("a concurrent replay returned another answer")
					return
				}
			}
		}()
	}
	rw.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
