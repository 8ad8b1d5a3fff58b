package querymind

// A frozen copy of Analyze with every table built per call, the
// reference TestAnalyzeMatchesReference holds the shared-table
// implementation to.

import (
	"fmt"

	"arachnet/internal/nlq"
	"arachnet/internal/registry"
)

// refAnalyze is Analyze as it was before the decomposition tables were
// shared: every slice is built on every call, with fmt.
func refAnalyze(spec nlq.Spec, data DataAvailability) (*ProblemSpec, error) {
	ps := &ProblemSpec{Query: spec, Complexity: spec.Complexity()}

	switch spec.Intent {
	case nlq.IntentCableImpact:
		refDecomposeCableImpact(ps, data)
	case nlq.IntentDisasterImpact:
		refDecomposeDisaster(ps, data)
	case nlq.IntentCascade:
		if err := refDecomposeCascade(ps, data); err != nil {
			return nil, err
		}
	case nlq.IntentForensic:
		if err := refDecomposeForensic(ps, data); err != nil {
			return nil, err
		}
	default:
		return nil, &ErrInfeasible{Reason: fmt.Sprintf(
			"intent %q is not a recognized measurement problem class; rephrase with a concrete target (cable, region, disaster, anomaly)", spec.Intent)}
	}
	return ps, nil
}

func refDecomposeCableImpact(ps *ProblemSpec, data DataAvailability) {
	ps.Classification = []string{"spatial"}
	if !data.HasCrossLayerMap {
		ps.Risks = append(ps.Risks, "no cross-layer map available: cable-to-link attribution impossible")
	} else if data.MapCoverage < 0.9 {
		ps.Risks = append(ps.Risks, fmt.Sprintf(
			"cross-layer map covers %.0f%% of submarine links; unmapped links may hide impact", data.MapCoverage*100))
	}
	target := "the named cable"
	if len(ps.Query.Cables) == 0 {
		target = "the cable set in scope"
	}
	ps.SubProblems = []SubProblem{
		{
			ID: "dependencies", Goal: "Identify the IP links that depend on " + target,
			Produces: registry.TLinkSet, Tags: []string{"cable-dependency", "link-extraction"},
			Constraints: []string{"attribution must come from the cross-layer map, not name heuristics"},
		},
		{
			ID: "elements", Goal: "Extract the affected IP addresses",
			Produces: registry.TIPSet, Tags: []string{"ip-extraction"},
			DependsOn: []string{"dependencies"}, Optional: true,
		},
		{
			ID: "geography", Goal: "Map affected elements to countries",
			Produces: registry.TGeoTable, Tags: []string{"geo-mapping"},
			DependsOn: []string{"elements"}, Optional: true,
		},
		{
			ID: "aggregation", Goal: "Aggregate losses into a country-level impact table",
			Produces: registry.TImpact, Tags: []string{"aggregation", "country-level", "impact-analysis"},
			DependsOn:   []string{"dependencies", "geography"},
			Constraints: []string{"report normalized metrics so countries of different sizes compare fairly"},
		},
	}
	ps.Constraints = append(ps.Constraints, "aggregation grain: country level")
	ps.SuccessCriteria = []string{
		"a per-country impact table with normalized scores exists",
		"every impacted country traces back to a failed link",
	}
}

func refDecomposeDisaster(ps *ProblemSpec, data DataAvailability) {
	ps.Classification = []string{"spatial", "probabilistic"}
	prob := ps.Query.FailProb
	if prob == 0 {
		prob = 0.1
		ps.Constraints = append(ps.Constraints, "no failure probability stated; defaulting to 10%")
	}
	ps.SubProblems = []SubProblem{
		{
			ID: "events", Goal: "Enumerate the severe disaster scenarios in scope",
			Produces: registry.TEventList, Tags: []string{"event-selection"},
			Constraints: []string{"use curated severe-event catalogs, not ad-hoc epicenters"},
		},
		{
			ID: "processing", Goal: fmt.Sprintf("Process each event with failure probability %.2f", prob),
			Produces: registry.TEventImpact, Tags: []string{"event-processing"},
			DependsOn:   []string{"events"},
			Constraints: []string{"one event-processing function handles every disaster type; do not build per-type pipelines"},
		},
		{
			ID: "combination", Goal: "Combine per-event impacts into one global view",
			Produces: registry.TGlobal, Tags: []string{"combine", "aggregation"},
			DependsOn: []string{"processing"},
		},
	}
	ps.Risks = append(ps.Risks,
		"over-engineering risk: multi-framework orchestration adds nothing here — event processing alone suffices")
	ps.SuccessCriteria = []string{
		"expected impact computed for every event of every requested type",
		"a single combined global impact view exists",
	}
	_ = data
}

func refDecomposeCascade(ps *ProblemSpec, data DataAvailability) error {
	ps.Classification = []string{"spatial", "temporal"}
	if !data.HasCrossLayerMap {
		return &ErrInfeasible{Reason: "cascade analysis needs the cross-layer map to seed cable failures"}
	}
	if len(ps.Query.Regions) < 2 {
		return &ErrInfeasible{Reason: "cascade analysis needs a corridor: name two regions (e.g. Europe and Asia)"}
	}
	ps.SubProblems = []SubProblem{
		{
			ID: "corridor", Goal: "Identify the submarine cables joining the two regions",
			Produces: registry.TLinkSet, Tags: []string{"link-extraction", "cable-dependency"},
			Constraints: []string{"scope strictly to the named corridor"},
		},
		{
			ID: "impact", Goal: "Quantify the primary cross-layer impact of the corridor failing",
			Produces: registry.TImpact, Tags: []string{"impact-analysis", "aggregation"},
			DependsOn: []string{"corridor"},
		},
		{
			ID: "cascade", Goal: "Model secondary failures over cable and AS dependency graphs",
			Produces: registry.TCascade, Tags: []string{"cascade", "dependency-graph"},
			DependsOn: []string{"corridor"},
		},
	}
	if data.HasBGPStream {
		ps.SubProblems = append(ps.SubProblems,
			SubProblem{
				ID: "temporal", Goal: "Track how the failure manifests in routing over time",
				Produces: registry.TBGPBursts, Tags: []string{"anomaly-detection", "routing"},
			},
			SubProblem{
				ID: "synthesis", Goal: "Synthesize a unified cascade timeline across cable, IP, AS and routing layers",
				Produces: registry.TTimeline, Tags: []string{"synthesis", "cross-layer"},
				DependsOn: []string{"impact", "cascade", "temporal"},
			},
		)
		ps.SuccessCriteria = append(ps.SuccessCriteria, "a unified timeline spans at least the cable, IP and AS layers")
	} else {
		ps.Constraints = append(ps.Constraints, "no BGP dumps available: temporal evolution omitted, impact+cascade only")
		ps.Risks = append(ps.Risks, "without routing data the cascade's temporal ordering is model-derived only")
	}
	ps.SuccessCriteria = append(ps.SuccessCriteria,
		"primary impact quantified per country",
		"secondary (cascade) failures enumerated by round")
	return nil
}

func refDecomposeForensic(ps *ProblemSpec, data DataAvailability) error {
	ps.Classification = []string{"temporal", "causal", "spatial"}
	if !data.HasTraceArchive {
		return &ErrInfeasible{Reason: "forensic analysis needs a latency archive covering the anomaly window; none is available"}
	}
	if !data.HasBGPStream {
		return &ErrInfeasible{Reason: "forensic causation needs BGP dumps for independent validation; none are available"}
	}
	if ps.Query.Window.Mentioned && data.WindowDays <= ps.Query.Window.Days {
		ps.Risks = append(ps.Risks, fmt.Sprintf(
			"archive window (%dd) barely covers the anomaly onset (%dd ago); baseline may be thin",
			data.WindowDays, ps.Query.Window.Days))
	}
	ps.SubProblems = []SubProblem{
		{
			ID: "measurements", Goal: "Load the probe archive for the affected corridor",
			Produces: registry.TTraceArch, Tags: []string{"measurement-data", "temporal"},
		},
		{
			ID: "anomaly", Goal: "Establish a latency baseline and detect the shift with significance testing",
			Produces: registry.TAnomaly, Tags: []string{"anomaly-detection", "statistical"},
			DependsOn:   []string{"measurements"},
			Constraints: []string{"use robust statistics; a single noisy probe must not drive the verdict"},
		},
		{
			ID: "routing-data", Goal: "Load the BGP updates covering the window",
			Produces: registry.TBGPStream, Tags: []string{"routing-data", "temporal"},
		},
		{
			ID: "correlation", Goal: "Score candidate cables by infrastructure correlation",
			Produces: registry.TSuspects, Tags: []string{"infrastructure-correlation", "forensic"},
			DependsOn: []string{"anomaly", "routing-data"},
		},
		{
			ID: "validation", Goal: "Validate timing independently against routing behavior",
			Produces: registry.TFloat, Tags: []string{"temporal-correlation", "validation"},
			DependsOn: []string{"anomaly", "routing-data"},
		},
		{
			ID: "verdict", Goal: "Fuse the evidence into a causation verdict naming the cable",
			Produces: registry.TVerdict, Tags: []string{"evidence-synthesis", "causation"},
			DependsOn:   []string{"anomaly", "correlation", "validation"},
			Constraints: []string{"report confidence; do not assert causation from one evidence source"},
		},
	}
	ps.SuccessCriteria = []string{
		"anomaly presence decided by significance test, not eyeballing",
		"verdict cites at least three independent evidence sources",
		"a specific cable is named, or cable failure is explicitly ruled out",
	}
	return nil
}
