package eval

// Curation never changes an answer. A System that curates promotes
// composites from its own history and plans through them; a System
// that never curated plans from the builtin catalog alone. Asked the
// same question, the two must give byte-identical outputs, or the same
// error. The never-curated System must be a separate one:
// AskWithoutCuration stops a System promoting, not planning through the
// composites it already has.

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"arachnet/internal/core"
	"arachnet/internal/netsim"
)

// answer is what an ask must reproduce: its outputs as JSON and its
// error text.
type answer struct {
	outputs string
	err     string
}

func answerOf(t testing.TB, rep *core.Report, err error) answer {
	t.Helper()
	var a answer
	if err != nil {
		a.err = err.Error()
	}
	if rep != nil && rep.Result != nil {
		b, merr := json.Marshal(rep.Result.Outputs)
		if merr != nil {
			t.Fatal(merr)
		}
		a.outputs = string(b)
	}
	return a
}

var (
	neverCuratedOnce sync.Once
	curationEnv      *core.Environment
	neverCurated     map[string]answer
	neverCuratedErr  error
)

// reference returns the small world (seed 7, scenario seed 5) and the
// answer a never-curating System gives each corpus question on it.
func reference(t testing.TB) (*core.Environment, map[string]answer) {
	t.Helper()
	neverCuratedOnce.Do(func() {
		env, err := core.NewEnvironment(netsim.SmallConfig(7))
		if err == nil {
			err = env.InjectCableFailureScenario(core.ScenarioConfig{Seed: 5})
		}
		var sys *core.System
		if err == nil {
			sys, err = core.NewSystem(env, nil)
		}
		if err != nil {
			neverCuratedErr = err
			return
		}
		curationEnv, neverCurated = env, map[string]answer{}
		for _, q := range Corpus() {
			rep, err := sys.Ask(context.Background(), q, core.AskWithoutCuration())
			neverCurated[q] = answerOf(t, rep, err)
		}
	})
	if neverCuratedErr != nil {
		t.Fatal(neverCuratedErr)
	}
	return curationEnv, neverCurated
}

// askCurating asks sys, which curates, q and fails t unless the answer
// is the never-curated one. It reports whether the plan went through a
// composite.
func askCurating(t testing.TB, sys *core.System, ref map[string]answer, q string) bool {
	t.Helper()
	rep, err := sys.Ask(context.Background(), q)
	if got, want := answerOf(t, rep, err), ref[q]; got != want {
		t.Errorf("%q: curated answer differs from the never-curated one:\ncurated: %s %s\nnever:   %s %s",
			q, got.err, got.outputs, want.err, want.outputs)
	}
	if rep == nil || rep.Design == nil {
		return false
	}
	for _, s := range rep.Design.Chosen.Steps {
		if c, err := sys.Registry().Get(s.Capability); err == nil && c.Composite {
			return true
		}
	}
	return false
}

// TestCurationKeepsAnswers asks a curating System the corpus in three
// rounds, and another the case studies in five, and compares every
// answer with the never-curated one. By the last round each System
// must plan through a composite, or the comparison shows nothing.
func TestCurationKeepsAnswers(t *testing.T) {
	_, ref := reference(t)
	corpus := Corpus()
	for _, c := range []struct {
		name      string
		questions []string
		rounds    int
	}{{"corpus", corpus, 3}, {"case studies", corpus[:4], 5}} {
		t.Run(c.name, func(t *testing.T) {
			sys, err := core.NewSystem(curationEnv, nil)
			if err != nil {
				t.Fatal(err)
			}
			composite := 0
			for round := 1; round <= c.rounds; round++ {
				for _, q := range c.questions {
					if askCurating(t, sys, ref, q) && round == c.rounds {
						composite++
					}
				}
			}
			if composite == 0 {
				t.Errorf("no plan of the last round goes through a composite (%d promotions)", len(sys.Promotions()))
			}
			// Each composite takes its head's input ports as they are and
			// chains primitives only.
			for _, p := range sys.Promotions() {
				c := p.Capability
				head, err := sys.Registry().Get(c.Chain[0].Capability)
				if err != nil || !reflect.DeepEqual(c.Inputs, head.Inputs) {
					t.Errorf("%s takes %v, not its head's inputs", c.Name, c.Inputs)
				}
				for _, st := range c.Chain {
					if m, err := sys.Registry().Get(st.Capability); err != nil || m.Composite {
						t.Errorf("%s chains %s, which is not a primitive", c.Name, st.Capability)
					}
				}
			}
			t.Logf("%d promotions; %d of %d plans in the last round go through a composite",
				len(sys.Promotions()), composite, len(c.questions))
		})
	}
}

// maxFuzzAsks bounds the questions one fuzz input asks.
const maxFuzzAsks = 48

// FuzzCurationKeepsAnswers asks a fresh curating System the corpus
// questions picked by the input's bytes, one byte each, and compares
// every answer with the never-curated one.
func FuzzCurationKeepsAnswers(f *testing.F) {
	n := len(Corpus())
	seq := func(rounds int, picks ...int) []byte {
		var b []byte
		for range rounds {
			for _, p := range picks {
				b = append(b, byte(p))
			}
		}
		return b
	}
	// The case studies, round after round: CS3 names no cable.
	f.Add(seq(5, 0, 1, 2, 3))
	// Three cables, then a region pair with a connecting cable.
	f.Add(seq(2, 4, 5, 6, 48, 49))
	// One disaster set at three failure probabilities.
	f.Add(seq(2, n-16, n-15, n-14))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, picks []byte) {
		_, ref := reference(t)
		corpus := Corpus()
		if len(picks) > maxFuzzAsks {
			picks = picks[:maxFuzzAsks]
		}
		sys, err := core.NewSystem(curationEnv, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range picks {
			askCurating(t, sys, ref, corpus[int(p)%len(corpus)])
		}
	})
}
