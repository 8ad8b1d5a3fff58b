package solutionweaver_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/core"
	"arachnet/internal/geo"
	"arachnet/internal/netsim"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

var caseStudies = []string{
	"Identify the impact at a country level due to SeaMeWe-5 cable failure",
	"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
	"Analyze the cascading effects of submarine cable failures between Europe and Asia",
	"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
}

// plan is one question carried through the planning agents.
type plan struct {
	label    string
	reg      *registry.Registry
	design   *workflowscout.Design
	solution *solutionweaver.Solution
}

var (
	corpusOnce sync.Once
	corpus     []plan
	corpusErr  error
)

// planCorpus plans, on the small world (seed 7, scenario seed 5), the
// four case studies and one question per catalog cable, region pair,
// disaster set and forensic window, first over the builtin registry
// and then over the registry a curating System holds after asking
// them all twice, whose composites carry list and float literals.
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
	queries := append([]string(nil), caseStudies...)
	for _, c := range env.Catalog.Cables() {
		queries = append(queries, fmt.Sprintf("Identify the impact at a country level due to %s cable failure", c.Name))
	}
	regions := geo.AllRegions()
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			queries = append(queries, fmt.Sprintf("Analyze the cascading effects of submarine cable failures between %s and %s", a, b))
		}
	}
	for _, d := range []string{"earthquakes", "hurricanes", "earthquakes and hurricanes"} {
		for _, p := range []int{5, 10, 20, 30} {
			queries = append(queries, fmt.Sprintf("Identify the impact of severe %s globally assuming a %d%% infra failure probability", d, p))
		}
	}
	for _, w := range []string{"two", "three", "four", "five"} {
		queries = append(queries, fmt.Sprintf("A sudden increase in latency was observed from European probes to Asian "+
			"destinations starting %s days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.", w))
	}

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
			out = append(out, plan{label: r.name + ": " + q, reg: r.reg, design: design, solution: sol})
		}
	}
	return out, nil
}

// planningGolden is the SHA-256 of every planning artifact of the
// corpus, as the fmt-based planners produced them: each design's
// strategy and scored alternatives, each listing with its LoC and
// woven checks, and each compiled step's fingerprint.
const planningGolden = "18768885fcd0e2c51913ef850db5137c2215d73c88ec424c7226cb8e5dcaf863"

// TestPlanningGolden pins the planning artifacts of the corpus.
// Rendering, ranking, rollback and compilation may change how they
// work, never what they produce.
func TestPlanningGolden(t *testing.T) {
	h := sha256.New()
	composites := 0
	for _, p := range planCorpus(t) {
		d := p.design
		fmt.Fprintf(h, "%s\x00%s %d\n", p.label, d.Strategy, d.Explored)
		for _, c := range d.Alternatives {
			fmt.Fprintf(h, "alt %s %s %d %d %d %s\n", strings.Join(c.Workflow.CapabilityNames(), "|"),
				strconv.FormatFloat(c.Score, 'g', -1, 64), c.StepCount, c.FrameworkCount, c.TotalCost, c.Rationale)
		}
		sol := p.solution
		fmt.Fprintf(h, "%d %d %s\x00", sol.LoC, sol.ChecksAdded, sol.Code)
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
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("planning digest %s (%d composite steps)", got, composites)
	if got != planningGolden {
		t.Errorf("planning digest %s, want %s", got, planningGolden)
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
