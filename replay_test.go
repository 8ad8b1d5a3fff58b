package arachnet_test

// The replay memo, end to end: a System's fully cached replays of one
// plan share one Result while the step cache holds the maps it was
// built from, answer what AskNoCache computes, and are observed,
// streamed and counted exactly as a replay that builds its Result.

import (
	"fmt"
	"sync"
	"testing"

	"arachnet"
)

const replayQuery = "Identify the impact at a country level due to SeaMeWe-5 cable failure"

// replays asks query n times without curation and returns the Reports.
func replays(t *testing.T, sys *arachnet.System, query string, n int) []*arachnet.Report {
	t.Helper()
	reps := make([]*arachnet.Report, n)
	for i := range reps {
		rep, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

// TestReplayMemoServesOneResult: after a plan miss, the first replay
// builds its Result, the second builds the one the plan memoizes, and
// the third returns it, reading each step from the step cache once and
// answering what AskNoCache computes. Once the step cache is flushed
// the memo is never served again, not even when every step is cached
// once more.
func TestReplayMemoServesOneResult(t *testing.T) {
	cached, fresh := pairedSystems(t, 42, 0)
	reps := replays(t, cached, replayQuery, 3)
	if reps[2].Result == reps[1].Result {
		t.Error("the first replay's Result was memoized; the memo is stored from the second on")
	}
	hits := cached.CacheStats().Step.Hits
	third := replays(t, cached, replayQuery, 1)[0]
	if third.Result != reps[2].Result {
		t.Fatalf("the third replay built Result %p, want the second's %p", third.Result, reps[2].Result)
	}
	if n, steps := cached.CacheStats().Step.Hits-hits, int64(len(third.Result.Steps)); n != steps {
		t.Errorf("a memo hit counted %d step-cache hits, want one per step, %d", n, steps)
	}
	want, err := fresh.Ask(ctx, replayQuery, arachnet.AskNoCache(), arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := answerJSON(t, third), answerJSON(t, want); string(got) != string(want) {
		t.Errorf("memoized answer differs from AskNoCache's:\nmemo:  %s\nfresh: %s", got, want)
	}

	// Flush the step cache and keep the plan.
	cached.SetCacheLimits(arachnet.DefaultPlanCacheEntries, 0, 0)
	cached.SetCacheLimits(arachnet.DefaultPlanCacheEntries, arachnet.DefaultStepCacheEntries, arachnet.DefaultStepCacheBytes)
	after := replays(t, cached, replayQuery, 3)
	for i, st := range after[0].Result.Steps {
		if st.Cached {
			t.Errorf("step %d served from a flushed cache", i)
		}
	}
	for i, rep := range after[:2] {
		if rep.Result == third.Result {
			t.Fatalf("replay %d after the flush served the memo built from dropped maps", i)
		}
	}
	// The cache now holds what the first replay after the flush
	// computed, and that is what the next ones serve.
	if got, want := after[1].Result.Outputs["aggregation"], after[0].Result.Outputs["aggregation"]; got != want {
		t.Errorf("replay served output %p, the step cache holds %p", got, want)
	}
	if after[2].Result != after[1].Result {
		t.Errorf("the fully cached replay after the flush did not become the memo")
	}
}

// eventTrace renders a run's events without their times and Reports.
func eventTrace(ev arachnet.Event) string {
	switch ev := ev.(type) {
	case *arachnet.StageStarted:
		return fmt.Sprintf("%d stage %s started", ev.Seq, ev.Stage)
	case *arachnet.StageCompleted:
		return fmt.Sprintf("%d stage %s completed cached=%v", ev.Seq, ev.Stage, ev.Cached)
	case *arachnet.StepStarted:
		return fmt.Sprintf("%d step %s (%s) started", ev.Seq, ev.Step, ev.Capability)
	case *arachnet.StepCompleted:
		return fmt.Sprintf("%d step %s (%s) completed in %v cached=%v", ev.Seq, ev.Step, ev.Capability, ev.Duration, ev.Cached)
	case *arachnet.StepFailed:
		return fmt.Sprintf("%d step %s (%s) failed: %v", ev.Seq, ev.Step, ev.Capability, ev.Err)
	case *arachnet.Done:
		return fmt.Sprintf("%d done err=%v", ev.Seq, ev.Err)
	}
	return fmt.Sprintf("%T", ev)
}

// TestReplayMemoEventsMatchRebuiltReplay: an observed Ask and a
// drained AskStream see the same events on a memo hit as on a replay
// that builds its Result.
func TestReplayMemoEventsMatchRebuiltReplay(t *testing.T) {
	memoized, rebuilt := pairedSystems(t, 42, 0)
	reps := replays(t, memoized, replayQuery, 3)
	memo := reps[2].Result
	replays(t, rebuilt, replayQuery, 1)

	observed := func(sys *arachnet.System) ([]string, *arachnet.Report) {
		var trace []string
		rep, err := sys.Ask(ctx, replayQuery, arachnet.AskWithoutCuration(), arachnet.AskObserver(arachnet.ObserverFunc(func(ev arachnet.Event) error {
			trace = append(trace, eventTrace(ev))
			return nil
		})))
		if err != nil {
			t.Fatal(err)
		}
		return trace, rep
	}
	streamed := func(sys *arachnet.System) ([]string, *arachnet.Report) {
		var trace []string
		var rep *arachnet.Report
		for ev := range sys.AskStream(ctx, replayQuery, arachnet.AskWithoutCuration()) {
			trace = append(trace, eventTrace(ev))
			if d, ok := ev.(*arachnet.Done); ok {
				if d.Err != nil {
					t.Fatal(d.Err)
				}
				rep = d.Report
			}
		}
		return trace, rep
	}
	for _, path := range []struct {
		name string
		ask  func(*arachnet.System) ([]string, *arachnet.Report)
	}{{"observed Ask", observed}, {"AskStream drain", streamed}} {
		got, rep := path.ask(memoized)
		if rep.Result != memo {
			t.Fatalf("%s: no memo hit", path.name)
		}
		want, rep := path.ask(rebuilt)
		if rep.Result == memo {
			t.Fatalf("%s: the rebuilt replay served the memo", path.name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: a memo hit emits\n%v\na rebuilt replay\n%v", path.name, got, want)
		}
	}
}

// TestConcurrentReplaysOfOnePlan asks one warm question from several
// goroutines at once, on every serving path that replays a plan; run
// it under -race. Each answer must be the uncached one.
func TestConcurrentReplaysOfOnePlan(t *testing.T) {
	cached, fresh := pairedSystems(t, 42, 0)
	want, err := fresh.Ask(ctx, replayQuery, arachnet.AskNoCache(), arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := string(answerJSON(t, want))
	replays(t, cached, replayQuery, 2)
	nop := arachnet.AskObserver(arachnet.ObserverFunc(func(arachnet.Event) error { return nil }))
	const askers, asks = 4, 25
	reps := make([]*arachnet.Report, askers*asks)
	errs := make([]error, askers*asks)
	var wg sync.WaitGroup
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for a := g * asks; a < (g+1)*asks; a++ {
				switch a % 3 {
				case 0:
					reps[a], errs[a] = cached.Ask(ctx, replayQuery, arachnet.AskWithoutCuration())
				case 1:
					reps[a], errs[a] = cached.Ask(ctx, replayQuery, arachnet.AskWithoutCuration(), nop)
				default:
					var j *arachnet.Job
					if j, errs[a] = cached.Submit(ctx, replayQuery, arachnet.AskWithoutCuration()); errs[a] == nil {
						reps[a], errs[a] = j.Wait(ctx)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for a, rep := range reps {
		if errs[a] != nil {
			t.Fatalf("ask %d: %v", a, errs[a])
		}
		if got := string(answerJSON(t, rep)); got != wantJSON {
			t.Fatalf("ask %d: answer differs from AskNoCache's:\n%s\n%s", a, got, wantJSON)
		}
	}
}
