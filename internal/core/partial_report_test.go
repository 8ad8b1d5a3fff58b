package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"
)

// filledFields names the stage artifacts a Report carries.
func filledFields(rep *Report) []string {
	var out []string
	if !reflect.ValueOf(rep.Spec).IsZero() {
		out = append(out, "Spec")
	}
	if rep.Problem != nil {
		out = append(out, "Problem")
	}
	if rep.Design != nil {
		out = append(out, "Design")
	}
	if rep.Solution != nil {
		out = append(out, "Solution")
	}
	if rep.Result != nil {
		out = append(out, "Result")
	}
	return out
}

// TestPartialReportPerStage vetoes each reviewed stage at its
// StageCompleted, once on a fresh plan and once on a replay of the
// plan an earlier unvetoed ask cached. Both must fail at the vetoed
// stage and leave the same partial Report: every artifact up to and
// including the vetoed stage's, nothing after it. A plan vetoed while
// it is planned is not cached.
func TestPartialReportPerStage(t *testing.T) {
	env := testEnv(t, false)
	want := map[string][]string{
		StageProblem:  {"Spec", "Problem"},
		StageDesign:   {"Spec", "Problem", "Design"},
		StageSolution: {"Spec", "Problem", "Design", "Solution"},
		StageResult:   {"Spec", "Problem", "Design", "Solution", "Result"},
	}
	for _, stage := range []string{StageProblem, StageDesign, StageSolution, StageResult} {
		t.Run(stage, func(t *testing.T) {
			sys, err := NewSystem(env, nil)
			if err != nil {
				t.Fatal(err)
			}
			rejection := errors.New("vetoed")
			ask := func(cached bool) []string {
				t.Helper()
				sawVetoed := false
				veto := ObserverFunc(func(ev Event) error {
					sc, ok := ev.(*StageCompleted)
					if !ok || sc.Stage != stage {
						return nil
					}
					sawVetoed = true
					if isPlanning := sc.Stage != StageResult; isPlanning && sc.Cached != cached {
						t.Errorf("%s StageCompleted Cached = %v, want %v", stage, sc.Cached, cached)
					}
					return rejection
				})
				hitsBefore := sys.CacheStats().Plan.Hits
				rep, err := sys.Ask(ctx, queryCS1, AskWithoutCuration(), AskObserver(veto))
				if !sawVetoed {
					t.Fatalf("no StageCompleted for %s", stage)
				}
				if !errors.Is(err, rejection) {
					t.Fatalf("err = %v, want the veto in the chain", err)
				}
				var pe *PipelineError
				if !errors.As(err, &pe) || pe.Stage != stage {
					t.Fatalf("err = %v, want a *PipelineError at %s", err, stage)
				}
				if hit := sys.CacheStats().Plan.Hits > hitsBefore; hit != cached {
					t.Fatalf("plan-cache hit = %v, want %v", hit, cached)
				}
				return filledFields(rep)
			}

			fresh := ask(false)
			if stage != StageResult {
				if n := sys.CacheStats().Plan.Entries; n != 0 {
					t.Errorf("a plan vetoed at %s was cached: %d entries", stage, n)
				}
				if _, err := sys.Ask(ctx, queryCS1, AskWithoutCuration()); err != nil {
					t.Fatal(err)
				}
			}
			replayed := ask(true)
			if !slices.Equal(fresh, want[stage]) {
				t.Errorf("fresh plan vetoed at %s filled %v, want %v", stage, fresh, want[stage])
			}
			if !slices.Equal(replayed, want[stage]) {
				t.Errorf("replayed plan vetoed at %s filled %v, want %v", stage, replayed, want[stage])
			}
		})
	}
}
