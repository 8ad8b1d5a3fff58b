package core

// ReplayMemo contract: a run gets its plan entry's memo slot only when
// it replayed a cached plan, served every step from the step cache and
// succeeded. Every other run gets nil.

import (
	"errors"
	"reflect"
	"testing"
)

// warmSystem builds a System with a scenario and asks query twice
// without curation, so the plan and every step are cached.
func warmSystem(t *testing.T, query string) *System {
	t.Helper()
	sys, err := NewSystem(testEnv(t, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.Ask(ctx, query, AskWithoutCuration()); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestReplayMemoOnFullyCachedReplay(t *testing.T) {
	for _, q := range []string{queryCS1, queryCS2, queryCS3, queryCS4} {
		sys, err := NewSystem(testEnv(t, true), nil)
		if err != nil {
			t.Fatal(err)
		}
		miss, err := sys.Ask(ctx, q, AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		if ReplayMemo(miss) != nil {
			t.Errorf("%.40q: a plan miss got a memo", q)
		}
		r1, err := sys.Ask(ctx, q, AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sys.Ask(ctx, q, AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		m1, m2 := ReplayMemo(r1), ReplayMemo(r2)
		if m1 == nil || m1 != m2 {
			t.Errorf("%.40q: replays got memos %p and %p, want one shared slot", q, m1, m2)
		}
	}
	if ReplayMemo(nil) != nil {
		t.Error("ReplayMemo(nil) is not nil")
	}
}

func TestReplayMemoNilUnlessFullyCached(t *testing.T) {
	t.Run("AskNoCache", func(t *testing.T) {
		sys := warmSystem(t, queryCS1)
		rep, err := sys.Ask(ctx, queryCS1, AskWithoutCuration(), AskNoCache())
		if err != nil {
			t.Fatal(err)
		}
		if ReplayMemo(rep) != nil {
			t.Error("AskNoCache run got a memo")
		}
	})
	t.Run("step cache disabled", func(t *testing.T) {
		sys := warmSystem(t, queryCS1)
		sys.SetCacheLimits(DefaultPlanCacheEntries, 0, 0)
		rep, err := sys.Ask(ctx, queryCS1, AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		if hits := sys.CacheStats().Plan.Hits; hits < 2 {
			t.Fatalf("plan hits = %d, want the run to replay a cached plan", hits)
		}
		if ReplayMemo(rep) != nil {
			t.Error("a replay that executed its steps got a memo")
		}
	})
	t.Run("failed run", func(t *testing.T) {
		sys := warmSystem(t, queryCS1)
		veto := errors.New("vetoed after execution")
		rep, err := sys.Ask(ctx, queryCS1, AskWithoutCuration(), AskObserver(ObserverFunc(func(ev Event) error {
			if sc, ok := ev.(*StageCompleted); ok && sc.Stage == StageResult {
				return veto
			}
			return nil
		})))
		if !errors.Is(err, veto) {
			t.Fatalf("err = %v, want the veto", err)
		}
		if rep == nil || rep.Result == nil || !allCached(rep.Result) {
			t.Fatal("vetoed run did not replay every step from cache")
		}
		if ReplayMemo(rep) != nil {
			t.Error("a failed run got a memo")
		}
	})
	t.Run("injection between plan and engine", func(t *testing.T) {
		// The observer injects a scenario once the replayed plan is
		// handed over. The run keeps the epoch it planned at, so it
		// replays every step there, gets the entry's memo slot and
		// answers as the replay before the injection did.
		sys := warmSystem(t, queryCS1)
		before, err := sys.Ask(ctx, queryCS1, AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		injected := false
		rep, err := sys.Ask(ctx, queryCS1, AskWithoutCuration(), AskObserver(ObserverFunc(func(ev Event) error {
			if sc, ok := ev.(*StageCompleted); ok && sc.Stage == StageSolution && sc.Cached && !injected {
				injected = true
				return sys.Environment().InjectCableFailureScenario(ScenarioConfig{Seed: 6})
			}
			return nil
		})))
		if err != nil {
			t.Fatal(err)
		}
		if !injected {
			t.Fatal("the run did not replay a cached plan")
		}
		if !allCached(rep.Result) {
			t.Fatal("the run did not replay every step from cache at its epoch")
		}
		if m, want := ReplayMemo(rep), ReplayMemo(before); m == nil || m != want {
			t.Errorf("memo %p, want the entry's slot %p", m, want)
		}
		if !reflect.DeepEqual(rep.Result.Outputs, before.Result.Outputs) {
			t.Error("outputs differ from the replay before the injection")
		}
	})
}
