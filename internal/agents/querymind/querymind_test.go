package querymind

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
)

var fullData = DataAvailability{
	HasCrossLayerMap: true, MapCoverage: 0.95,
	HasTraceArchive: true, HasBGPStream: true, WindowDays: 7,
}

func parse(t testing.TB, q string) nlq.Spec {
	t.Helper()
	return nlq.Parse(q, nautilus.BuildCatalog())
}

func TestCableImpactDecomposition(t *testing.T) {
	spec := parse(t, "Identify the impact at a country level due to SeaMeWe-5 cable failure")
	ps, err := New().Analyze(spec, fullData)
	if err != nil {
		t.Fatal(err)
	}
	req := ps.Required()
	if len(req) != 2 {
		t.Fatalf("required subproblems = %d, want 2 (dependencies, aggregation)", len(req))
	}
	if req[0].ID != "dependencies" || req[0].Produces != registry.TLinkSet {
		t.Errorf("first required = %+v", req[0])
	}
	if req[1].ID != "aggregation" || req[1].Produces != registry.TImpact {
		t.Errorf("second required = %+v", req[1])
	}
	// Optional intermediates present for the direct pipeline path.
	if len(ps.SubProblems) != 4 {
		t.Errorf("total subproblems = %d, want 4", len(ps.SubProblems))
	}
	if len(ps.SuccessCriteria) == 0 {
		t.Error("no success criteria")
	}
	if ps.Complexity >= 3 {
		t.Errorf("CS1 complexity = %d, should be simple", ps.Complexity)
	}
}

func TestCableImpactLowCoverageRisk(t *testing.T) {
	spec := parse(t, "impact of SeaMeWe-5 cable failure")
	data := fullData
	data.MapCoverage = 0.5
	ps, err := New().Analyze(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ps.Risks {
		if strings.Contains(r, "50%") {
			found = true
		}
	}
	if !found {
		t.Errorf("low coverage risk not surfaced: %v", ps.Risks)
	}
}

func TestDisasterDecomposition(t *testing.T) {
	spec := parse(t, "Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability")
	ps, err := New().Analyze(spec, fullData)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for _, sp := range ps.SubProblems {
		ids = append(ids, sp.ID)
	}
	want := []string{"events", "processing", "combination"}
	if len(ids) != 3 {
		t.Fatalf("subproblems = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("subproblem %d = %s, want %s", i, ids[i], want[i])
		}
	}
	// The over-engineering risk must be surfaced.
	found := false
	for _, r := range ps.Risks {
		if strings.Contains(r, "over-engineering") {
			found = true
		}
	}
	if !found {
		t.Errorf("restraint risk missing: %v", ps.Risks)
	}
	if ps.Classification[1] != "probabilistic" {
		t.Errorf("classification = %v", ps.Classification)
	}
}

func TestDisasterDefaultProbability(t *testing.T) {
	spec := parse(t, "what do severe hurricanes do to the Internet")
	ps, err := New().Analyze(spec, fullData)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range ps.Constraints {
		if strings.Contains(c, "defaulting to 10%") {
			found = true
		}
	}
	if !found {
		t.Errorf("default probability not documented: %v", ps.Constraints)
	}
}

func TestCascadeDecomposition(t *testing.T) {
	spec := parse(t, "Analyze the cascading effects of submarine cable failures between Europe and Asia")
	ps, err := New().Analyze(spec, fullData)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.SubProblems) != 5 {
		t.Fatalf("subproblems = %d, want 5 with temporal data", len(ps.SubProblems))
	}
	last := ps.SubProblems[len(ps.SubProblems)-1]
	if last.ID != "synthesis" || last.Produces != registry.TTimeline {
		t.Errorf("final subproblem = %+v", last)
	}
	if len(last.DependsOn) != 3 {
		t.Errorf("synthesis depends on %v", last.DependsOn)
	}
}

func TestCascadeWithoutBGPDegrades(t *testing.T) {
	spec := parse(t, "cascading effects of cable failures between Europe and Asia")
	data := fullData
	data.HasBGPStream = false
	ps, err := New().Analyze(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range ps.SubProblems {
		if sp.ID == "temporal" || sp.ID == "synthesis" {
			t.Errorf("temporal subproblem %s present without BGP data", sp.ID)
		}
	}
	found := false
	for _, c := range ps.Constraints {
		if strings.Contains(c, "temporal evolution omitted") {
			found = true
		}
	}
	if !found {
		t.Errorf("degradation not documented: %v", ps.Constraints)
	}
}

func TestCascadeNeedsCorridor(t *testing.T) {
	spec := parse(t, "analyze cascading failures everywhere")
	_, err := New().Analyze(spec, fullData)
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if !strings.Contains(inf.Reason, "corridor") {
		t.Errorf("reason = %q", inf.Reason)
	}
}

func TestForensicDecomposition(t *testing.T) {
	spec := parse(t, "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.")
	ps, err := New().Analyze(spec, fullData)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.SubProblems) != 6 {
		t.Fatalf("subproblems = %d, want 6", len(ps.SubProblems))
	}
	verdict := ps.SubProblems[5]
	if verdict.Produces != registry.TVerdict || len(verdict.DependsOn) != 3 {
		t.Errorf("verdict subproblem = %+v", verdict)
	}
	// Classification must include causal.
	hasCausal := false
	for _, c := range ps.Classification {
		if c == "causal" {
			hasCausal = true
		}
	}
	if !hasCausal {
		t.Errorf("classification = %v", ps.Classification)
	}
}

func TestForensicInfeasibleWithoutData(t *testing.T) {
	spec := parse(t, "latency increased three days ago, determine if a cable failure caused this")
	for _, mut := range []func(*DataAvailability){
		func(d *DataAvailability) { d.HasTraceArchive = false },
		func(d *DataAvailability) { d.HasBGPStream = false },
	} {
		data := fullData
		mut(&data)
		_, err := New().Analyze(spec, data)
		var inf *ErrInfeasible
		if !errors.As(err, &inf) {
			t.Errorf("missing data not rejected: %v", err)
		}
	}
}

func TestForensicThinBaselineRisk(t *testing.T) {
	spec := parse(t, "latency jumped five days ago; did a cable failure cause this?")
	data := fullData
	data.WindowDays = 5
	ps, err := New().Analyze(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ps.Risks {
		if strings.Contains(r, "baseline may be thin") {
			found = true
		}
	}
	if !found {
		t.Errorf("thin baseline risk missing: %v", ps.Risks)
	}
}

func TestGenericRejected(t *testing.T) {
	spec := parse(t, "tell me interesting facts")
	_, err := New().Analyze(spec, fullData)
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("generic not rejected: %v", err)
	}
	if !strings.Contains(inf.Error(), "infeasible") {
		t.Errorf("error text: %v", inf)
	}
}

func TestDependenciesAcyclicAndResolvable(t *testing.T) {
	queries := []string{
		"impact at country level of SeaMeWe-5 cable failure",
		"impact of severe earthquakes and hurricanes at 10% failure probability",
		"cascading effects of cable failures between Europe and Asia",
		"latency rose three days ago; determine if a cable failure caused it and identify the specific cable",
	}
	for _, q := range queries {
		ps, err := New().Analyze(parse(t, q), fullData)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		seen := map[string]bool{}
		for _, sp := range ps.SubProblems {
			for _, d := range sp.DependsOn {
				if !seen[d] {
					t.Errorf("%q: %s depends on %s which is not earlier", q, sp.ID, d)
				}
			}
			seen[sp.ID] = true
		}
	}
}

// specGrid is one spec per intent and variant Analyze distinguishes:
// a named cable or none, zero to two regions, a stated failure
// probability or none, and an anomaly window of 1–4 days or none.
func specGrid() []nlq.Spec {
	var out []nlq.Spec
	for _, intent := range []nlq.Intent{nlq.IntentCableImpact, nlq.IntentDisasterImpact,
		nlq.IntentCascade, nlq.IntentForensic, nlq.IntentGeneric, "bogus"} {
		for _, cables := range [][]nautilus.CableID{nil, {"seamewe-5"}} {
			for _, regions := range [][]geo.Region{nil, {geo.Europe}, {geo.Europe, geo.Asia}} {
				for _, prob := range []float64{0, 0.05, 0.333} {
					for _, days := range []int{0, 1, 3, 4} {
						out = append(out, nlq.Spec{
							Raw: "grid", Intent: intent, Cables: cables, Regions: regions,
							Disasters: []string{"earthquake"}, FailProb: prob,
							Window: nlq.TimeWindow{Mentioned: days > 0, Days: days},
						})
					}
				}
			}
		}
	}
	return out
}

// dataGrid is every data availability Analyze distinguishes: with or
// without each source, coverage below and above 0.9, and an archive
// window shorter, equal to and longer than the grid's anomaly windows.
func dataGrid() []DataAvailability {
	var out []DataAvailability
	for _, xl := range []bool{false, true} {
		for _, cov := range []float64{0.5, 0.874, 0.95} {
			for _, trace := range []bool{false, true} {
				for _, bgp := range []bool{false, true} {
					for _, window := range []int{2, 3, 7} {
						out = append(out, DataAvailability{
							HasCrossLayerMap: xl, MapCoverage: cov,
							HasTraceArchive: trace, HasBGPStream: bgp, WindowDays: window,
						})
					}
				}
			}
		}
	}
	return out
}

// TestAnalyzeMatchesReference holds Analyze, which shares its tables,
// to refAnalyze, which builds every slice per call: over every intent
// and data-availability combination the specs are deep-equal, and so
// are the infeasibility errors.
func TestAnalyzeMatchesReference(t *testing.T) {
	n := 0
	for _, spec := range specGrid() {
		for _, data := range dataGrid() {
			got, gotErr := New().Analyze(spec, data)
			want, wantErr := refAnalyze(spec, data)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("Analyze(%+v, %+v) =\n%+v, %v\nwant\n%+v, %v", spec, data, got, gotErr, want, wantErr)
			}
			n++
		}
	}
	t.Logf("%d combinations", n)
}

// TestAnalyzeSpecsOwnSubProblems appends to and rewrites one result's
// SubProblems and checks that another result of the same analysis still
// equals the reference's: no spec's SubProblems is a shared table.
func TestAnalyzeSpecsOwnSubProblems(t *testing.T) {
	for _, q := range []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
		"Analyze the cascading effects of submarine cable failures between Europe and Asia",
		"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
	} {
		for _, data := range []DataAvailability{fullData, {HasCrossLayerMap: true, MapCoverage: 0.5, HasTraceArchive: true}} {
			spec := parse(t, q)
			first, err := New().Analyze(spec, data)
			if err != nil {
				continue // forensic without BGP dumps
			}
			second, _ := New().Analyze(spec, data)
			first.SubProblems = append(first.SubProblems, SubProblem{ID: "extra", Goal: "appended"})
			first.SubProblems[0].Goal = "rewritten"
			first.Risks = append(first.Risks, "appended")
			first.SuccessCriteria = append(first.SuccessCriteria, "appended")
			if want, _ := refAnalyze(spec, data); !reflect.DeepEqual(second, want) {
				t.Errorf("%q: changing one spec changed another:\n%+v\nwant\n%+v", q, second, want)
			}
		}
	}
}

// TestAnalyzeAllocs pins Analyze's allocation budget, paid on every
// plan-cache miss: the spec, its SubProblems and the goal or risk line
// that varies, at most 4 per case study.
func TestAnalyzeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	const ceiling = 6
	low := fullData
	low.MapCoverage = 0.5
	for _, q := range []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
		"Analyze the cascading effects of submarine cable failures between Europe and Asia",
		"A sudden increase in latency was observed from European probes to Asian destinations starting seven days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
	} {
		spec := parse(t, q)
		for _, data := range []DataAvailability{fullData, low} {
			avg := testing.AllocsPerRun(100, func() {
				if _, err := New().Analyze(spec, data); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.1f allocs/op", spec.Intent, avg)
			if avg > ceiling {
				t.Errorf("Analyze(%q) allocates %.1f/op, budget %d", q, avg, ceiling)
			}
		}
	}
}
