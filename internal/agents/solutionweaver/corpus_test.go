package solutionweaver_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"strings"
	"sync"
	"testing"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/core"
	"arachnet/internal/eval"
	"arachnet/internal/netsim"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// plan is one question carried through the planning agents.
type plan struct {
	label    string
	regName  string // "builtin" or "curated"
	reg      *registry.Registry
	design   *workflowscout.Design
	solution *solutionweaver.Solution
}

var (
	corpusOnce sync.Once
	corpus     []plan
	corpusErr  error
)

// planCorpus plans eval.Corpus on the small world (seed 7, scenario
// seed 5), first over the builtin registry and then over the registry
// a curating System holds after asking it twice.
func planCorpus(t testing.TB) []plan {
	t.Helper()
	corpusOnce.Do(func() { corpus, corpusErr = buildCorpus() })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func buildCorpus() ([]plan, error) {
	env, err := core.NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		return nil, err
	}
	if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: 5}); err != nil {
		return nil, err
	}
	queries := eval.Corpus()

	curating, err := core.NewSystem(env, nil)
	if err != nil {
		return nil, err
	}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			if _, err := curating.Ask(context.Background(), q); err != nil {
				return nil, fmt.Errorf("curating round %d: %w", round, err)
			}
		}
	}

	data := env.Data()
	avail := querymind.DataAvailability{
		HasCrossLayerMap: data.HasCrossLayerMap,
		MapCoverage:      data.MapCoverage,
		HasTraceArchive:  data.HasTraceArchive,
		HasBGPStream:     data.HasBGPStream,
		WindowDays:       data.WindowDays,
	}
	var out []plan
	for _, r := range []struct {
		name string
		reg  *registry.Registry
	}{{"builtin", core.BuiltinRegistry()}, {"curated", curating.Registry()}} {
		for _, q := range queries {
			problem, err := querymind.New().Analyze(nlq.Parse(q, env.Catalog), avail)
			if err != nil {
				return nil, fmt.Errorf("%s %q: %w", r.name, q, err)
			}
			design, err := workflowscout.New().Design(problem, r.reg)
			if err != nil {
				return nil, fmt.Errorf("%s %q: %w", r.name, q, err)
			}
			sol, err := solutionweaver.New().Weave(design.Chosen, r.reg)
			if err != nil {
				return nil, fmt.Errorf("%s %q: %w", r.name, q, err)
			}
			out = append(out, plan{label: r.name + ": " + q, regName: r.name, reg: r.reg, design: design, solution: sol})
		}
	}
	return out, nil
}

// planningGolden is, per registry, the SHA-256 of every planning
// artifact of the corpus, as the fmt-based planners produced them: each
// design's strategy and scored alternatives, each listing with its LoC
// and woven checks, and each compiled step's fingerprint.
var planningGolden = map[string]string{
	"builtin": "86166980c7ffa90c2dc3b68491afea2e162356dbfe9f523c9b0a011d33e19eef",
	"curated": "57f329b9045289d97760bb3bc64e3eb9718a07877f209efdeca44cfbe108522a",
}

// TestPlanningGolden pins the planning artifacts of the corpus.
// Rendering, ranking, rollback and compilation may change how they
// work, never what they produce.
func TestPlanningGolden(t *testing.T) {
	hs := map[string]hash.Hash{}
	composites := 0
	for _, p := range planCorpus(t) {
		h := hs[p.regName]
		if h == nil {
			h = sha256.New()
			hs[p.regName] = h
		}
		d := p.design
		fmt.Fprintf(h, "%s\x00%s %d\n", p.label, d.Strategy, d.Explored)
		for _, c := range d.Alternatives {
			fmt.Fprintf(h, "alt %s %s %d %d %d %s\n", strings.Join(c.Workflow.CapabilityNames(), "|"),
				strconv.FormatFloat(c.Score, 'g', -1, 64), c.StepCount, c.FrameworkCount, c.TotalCost, c.Rationale)
		}
		sol := p.solution
		fmt.Fprintf(h, "%d %d %s\x00", sol.LoC(), sol.ChecksAdded, sol.Code())
		for _, chk := range sol.Workflow.Checks {
			fmt.Fprintf(h, "check %s %s %s\n", chk.Name, chk.Kind, chk.Ref)
		}
		for _, s := range sol.Workflow.Steps {
			if strings.HasPrefix(s.Capability, "composite.") {
				composites++
			}
		}
		fps, err := stepFingerprints(sol.Workflow, p.reg)
		if err != nil {
			t.Fatalf("%s: %v", p.label, err)
		}
		for _, s := range sol.Workflow.Steps {
			fp, ok := fps[s.ID]
			if !ok {
				t.Fatalf("%s: step %s has no fingerprint", p.label, s.ID)
			}
			fmt.Fprintf(h, "fp %s %s\n", s.ID, hex.EncodeToString([]byte(fp)))
		}
	}
	if composites == 0 {
		t.Fatal("no curated plan uses a composite")
	}
	t.Logf("%d composite steps", composites)
	for name, want := range planningGolden {
		got := hex.EncodeToString(hs[name].Sum(nil))
		t.Logf("%s planning digest %s", name, got)
		if got != want {
			t.Errorf("%s planning digest %s, want %s", name, got, want)
		}
	}
}

// stepFingerprints compiles wf and returns each step's cache key for
// the environment fingerprint "golden-env". The run executes nothing:
// the recorder serves every step lookup as a hit.
func stepFingerprints(wf *workflow.Workflow, reg *registry.Registry) (map[string]string, error) {
	cp, err := workflow.Compile(wf, reg)
	if err != nil {
		return nil, err
	}
	rec := &fpRecorder{reg: reg, fps: map[string]string{}}
	eng := workflow.NewEngine(reg, nil, workflow.WithCache(rec, "golden-env"), workflow.WithParallelism(1))
	if _, err := eng.RunCompiled(context.Background(), cp, rec); err != nil {
		return nil, err
	}
	return rec.fps, nil
}

// fpRecorder pairs each cache lookup with the step the engine started
// just before it, and answers every lookup with a map holding each of
// that step's output ports.
type fpRecorder struct {
	reg *registry.Registry
	cur string
	out map[string]any
	fps map[string]string
}

func (r *fpRecorder) StepStarted(id, capability string) {
	r.cur, r.out = id, map[string]any{}
	if c, err := r.reg.Get(capability); err == nil {
		for _, p := range c.Outputs {
			r.out[p.Name] = nil
		}
	}
}

func (r *fpRecorder) StepFinished(workflow.StepStat) {}

func (r *fpRecorder) Get(key string) (map[string]any, bool) {
	r.fps[r.cur] = key
	return r.out, true
}

func (r *fpRecorder) Put(string, map[string]any) {}
