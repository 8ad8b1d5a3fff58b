package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"arachnet/internal/netsim"
)

// scenarioGolden is the SHA-256 of TestScenarioGolden's cross-layer
// maps and scenarios.
const scenarioGolden = "b01bb3050945c4df8c959ce183f79dedec8837f17a5007e8c0a2b43cb41af35e"

// goldenScenarios are the scenario configurations TestScenarioGolden
// injects into each of its worlds: the default, a custom failure day
// and window, a named cable, and more probe pairs than the default.
var goldenScenarios = []ScenarioConfig{
	{Seed: 5},
	{DaysBeforeNow: 2, WindowDays: 5, Seed: 9},
	{Cable: "seamewe-5", Seed: 3},
	{ProbePairs: 10, Seed: 5},
}

// TestScenarioGolden pins what environment set-up and scenario
// injection produce: the JSON of the cross-layer map and of every
// injected scenario (trace archive and BGP update stream) over three
// small worlds. Set-up may change how it computes routes and
// mappings, never what they are.
func TestScenarioGolden(t *testing.T) {
	h := sha256.New()
	for _, seed := range []uint64{7, 11, 19} {
		env, err := NewEnvironment(netsim.SmallConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "world %d\n", seed)
		hashJSON(t, h, env.CrossMap)
		for _, sc := range goldenScenarios {
			if err := env.InjectCableFailureScenario(sc); err != nil {
				t.Fatalf("world %d, scenario %+v: %v", seed, sc, err)
			}
			fmt.Fprintf(h, "scenario %+v\n", sc)
			hashJSON(t, h, env.Scenario())
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("scenario digest %s", got)
	if got != scenarioGolden {
		t.Errorf("scenario digest %s, want %s", got, scenarioGolden)
	}
}

func hashJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

// TestInjectAllocCeiling caps the allocations of one scenario
// injection into the small test world, so a return to tracing every
// probe at every tick of the campaign fails it.
func TestInjectAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	env, err := NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 5}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("scenario injection: %.0f allocs", avg)
	const ceiling = 7000
	if avg > ceiling {
		t.Errorf("scenario injection allocates %.0f, budget %d", avg, ceiling)
	}
}

// TestRunReadsOneEpoch: a scenario injected while a run executes does
// not reach that run. CS4, one step at a time, with an observer that
// injects scenario 6 as bgp.updates_window starts, must read the trace
// archive and the BGP stream of the scenario it started under, with and
// without the caches; the next ask reads scenario 6's.
func TestRunReadsOneEpoch(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("noCache=%v", noCache), func(t *testing.T) {
			sys, err := NewSystem(testEnv(t, true), nil)
			if err != nil {
				t.Fatal(err)
			}
			env := sys.Environment()
			opts := []AskOption{AskParallelism(1), AskWithoutCuration()}
			if noCache {
				opts = append(opts, AskNoCache())
			}
			before, injected := env.Scenario(), false
			rep, err := sys.Ask(ctx, queryCS4, append(opts, AskObserver(ObserverFunc(func(ev Event) error {
				if st, ok := ev.(*StepStarted); ok && st.Capability == "bgp.updates_window" && !injected {
					injected = true
					return env.InjectCableFailureScenario(ScenarioConfig{Seed: 6})
				}
				return nil
			})))...)
			if err != nil {
				t.Fatal(err)
			}
			if !injected {
				t.Fatal("bgp.updates_window never started")
			}
			after := env.Scenario()
			if reflect.DeepEqual(before.Stream, after.Stream) || reflect.DeepEqual(before.Archive, after.Archive) {
				t.Fatal("scenarios 5 and 6 share a stream or an archive")
			}
			next, err := sys.Ask(ctx, queryCS4, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				label string
				rep   *Report
				want  *Scenario
			}{{"the run the injection landed in", rep, before}, {"the next ask", next, after}} {
				got := map[string]any{}
				for _, st := range c.rep.Result.Steps {
					switch st.Capability {
					case "traceroute.archive_window":
						got["archive"] = c.rep.Result.Values[st.ID+".archive"]
					case "bgp.updates_window":
						got["stream"] = c.rep.Result.Values[st.ID+".stream"]
					}
				}
				if !reflect.DeepEqual(got["archive"], c.want.Archive) {
					t.Errorf("%s read another scenario's trace archive", c.label)
				}
				if !reflect.DeepEqual(got["stream"], c.want.Stream) {
					t.Errorf("%s read another scenario's BGP stream", c.label)
				}
			}
		})
	}
}

// BenchmarkNewEnvironment times building the small test world's
// environment: the world, the cable catalog, the cross-layer map and
// the analyzer.
func BenchmarkNewEnvironment(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewEnvironment(netsim.SmallConfig(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInjectScenario times one scenario injection into the small
// test world (seed 7, scenario seed 5).
func BenchmarkInjectScenario(b *testing.B) {
	benchmarkInject(b, netsim.SmallConfig(7))
}

// BenchmarkInjectScenarioFullWorld times one scenario injection into
// the full-size world the case studies run on.
func BenchmarkInjectScenarioFullWorld(b *testing.B) {
	benchmarkInject(b, netsim.DefaultConfig(42))
}

func benchmarkInject(b *testing.B, cfg netsim.Config) {
	env, err := NewEnvironment(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
