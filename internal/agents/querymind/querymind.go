// Package querymind implements ArachNet's first agent: problem analysis
// and decomposition. It turns a parsed natural-language query into
// structured sub-problems with dependencies, analyzes data and
// technical constraints early (infeasible approaches are rejected
// before any design work), surfaces risks, and defines explicit success
// criteria so downstream agents neither under-analyze nor
// over-engineer.
//
// The decomposition templates encode the expert reasoning patterns the
// paper's prompts captured: a cable-impact question hides dependency
// extraction, element extraction, geographic mapping and aggregation; a
// forensic question demands baseline statistics, infrastructure
// correlation, routing validation and evidence synthesis.
package querymind

import (
	"fmt"
	"strconv"

	"arachnet/internal/nlq"
	"arachnet/internal/registry"
)

// DataAvailability tells QueryMind what the environment can serve; it
// drives constraint analysis.
type DataAvailability struct {
	HasCrossLayerMap bool
	MapCoverage      float64
	HasTraceArchive  bool
	HasBGPStream     bool
	WindowDays       int
}

// SubProblem is one structured piece of the decomposition.
type SubProblem struct {
	ID   string
	Goal string
	// Produces is the artifact type that answers this sub-problem.
	Produces registry.DataType
	// Tags hint which capability families address it.
	Tags []string
	// DependsOn lists prerequisite sub-problem IDs.
	DependsOn []string
	// Optional sub-problems are intermediate means: the solution may
	// skip them when a capability satisfies the downstream goal
	// directly.
	Optional bool
	// Constraints specific to this sub-problem.
	Constraints []string
}

// ProblemSpec is QueryMind's output artifact.
type ProblemSpec struct {
	Query nlq.Spec
	// Classification flags the reasoning dimensions involved.
	Classification []string // "spatial", "temporal", "causal", "probabilistic"
	SubProblems    []SubProblem
	// Constraints are global: data availability, methodology.
	Constraints []string
	// Risks are failure modes that could compromise results.
	Risks []string
	// SuccessCriteria state when the query counts as answered.
	SuccessCriteria []string
	// Complexity drives WorkflowScout's adaptive exploration.
	Complexity int
}

// Required returns the non-optional sub-problems in order.
func (p *ProblemSpec) Required() []SubProblem {
	var out []SubProblem
	for _, sp := range p.SubProblems {
		if !sp.Optional {
			out = append(out, sp)
		}
	}
	return out
}

// ErrInfeasible wraps constraint-analysis rejections.
type ErrInfeasible struct{ Reason string }

func (e *ErrInfeasible) Error() string {
	return "querymind: query infeasible: " + e.Reason
}

// Agent is the QueryMind agent. The zero value is ready to use.
type Agent struct{}

// New returns a QueryMind agent.
func New() *Agent { return &Agent{} }

// Analyze decomposes a parsed query under the given data availability.
//
// The decomposition tables below are built once and shared read-only by
// every ProblemSpec Analyze returns, as a plan-cache hit shares its
// whole ProblemSpec: Classification, Constraints, Risks,
// SuccessCriteria and each sub-problem's Tags, DependsOn and
// Constraints must not be modified. Each spec gets its own exact-size
// SubProblems, so an append to one spec's list can never write into
// another's, and only the goals and risks that vary are formatted per
// call.
func (a *Agent) Analyze(spec nlq.Spec, data DataAvailability) (*ProblemSpec, error) {
	ps := &ProblemSpec{Query: spec, Complexity: spec.Complexity()}

	switch spec.Intent {
	case nlq.IntentCableImpact:
		a.decomposeCableImpact(ps, data)
	case nlq.IntentDisasterImpact:
		a.decomposeDisaster(ps, data)
	case nlq.IntentCascade:
		if err := a.decomposeCascade(ps, data); err != nil {
			return nil, err
		}
	case nlq.IntentForensic:
		if err := a.decomposeForensic(ps, data); err != nil {
			return nil, err
		}
	default:
		return nil, &ErrInfeasible{Reason: fmt.Sprintf(
			"intent %q is not a recognized measurement problem class; rephrase with a concrete target (cable, region, disaster, anomaly)", spec.Intent)}
	}
	return ps, nil
}

// subProblems returns an exact-size copy of a decomposition table.
func subProblems(table []SubProblem) []SubProblem {
	out := make([]SubProblem, len(table))
	copy(out, table)
	return out
}

// The dependencies goal, for a query that names a cable and for one
// that does not.
const (
	cableNamedGoal   = "Identify the IP links that depend on the named cable"
	cableInScopeGoal = "Identify the IP links that depend on the cable set in scope"
)

var (
	cableClassification = []string{"spatial"}
	cableNoMapRisks     = []string{"no cross-layer map available: cable-to-link attribution impossible"}
	cableTable          = []SubProblem{
		{
			ID: "dependencies", Goal: cableNamedGoal,
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
	cableConstraints = []string{"aggregation grain: country level"}
	cableSuccess     = []string{
		"a per-country impact table with normalized scores exists",
		"every impacted country traces back to a failed link",
	}
)

func (a *Agent) decomposeCableImpact(ps *ProblemSpec, data DataAvailability) {
	ps.Classification = cableClassification
	if !data.HasCrossLayerMap {
		ps.Risks = cableNoMapRisks
	} else if data.MapCoverage < 0.9 {
		var buf [128]byte
		b := append(buf[:0], "cross-layer map covers "...)
		b = strconv.AppendFloat(b, data.MapCoverage*100, 'f', 0, 64)
		b = append(b, "% of submarine links; unmapped links may hide impact"...)
		ps.Risks = []string{string(b)}
	}
	ps.SubProblems = subProblems(cableTable)
	if len(ps.Query.Cables) == 0 {
		ps.SubProblems[0].Goal = cableInScopeGoal
	}
	ps.Constraints = cableConstraints
	ps.SuccessCriteria = cableSuccess
}

var (
	disasterClassification = []string{"spatial", "probabilistic"}
	disasterNoProbability  = []string{"no failure probability stated; defaulting to 10%"}
	disasterTable          = []SubProblem{
		{
			ID: "events", Goal: "Enumerate the severe disaster scenarios in scope",
			Produces: registry.TEventList, Tags: []string{"event-selection"},
			Constraints: []string{"use curated severe-event catalogs, not ad-hoc epicenters"},
		},
		{
			ID:       "processing", // Goal names the failure probability
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
	disasterRisks = []string{
		"over-engineering risk: multi-framework orchestration adds nothing here — event processing alone suffices",
	}
	disasterSuccess = []string{
		"expected impact computed for every event of every requested type",
		"a single combined global impact view exists",
	}
)

func (a *Agent) decomposeDisaster(ps *ProblemSpec, data DataAvailability) {
	ps.Classification = disasterClassification
	prob := ps.Query.FailProb
	if prob == 0 {
		prob = 0.1
		ps.Constraints = disasterNoProbability
	}
	ps.SubProblems = subProblems(disasterTable)
	var buf [80]byte
	b := append(buf[:0], "Process each event with failure probability "...)
	ps.SubProblems[1].Goal = string(strconv.AppendFloat(b, prob, 'f', 2, 64))
	ps.Risks = disasterRisks
	ps.SuccessCriteria = disasterSuccess
	_ = data
}

var (
	cascadeClassification = []string{"spatial", "temporal"}
	// cascadeTable is the decomposition with BGP dumps; without them it
	// stops before temporal.
	cascadeTable = []SubProblem{
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
		{
			ID: "temporal", Goal: "Track how the failure manifests in routing over time",
			Produces: registry.TBGPBursts, Tags: []string{"anomaly-detection", "routing"},
		},
		{
			ID: "synthesis", Goal: "Synthesize a unified cascade timeline across cable, IP, AS and routing layers",
			Produces: registry.TTimeline, Tags: []string{"synthesis", "cross-layer"},
			DependsOn: []string{"impact", "cascade", "temporal"},
		},
	}
	cascadeSuccess = []string{
		"a unified timeline spans at least the cable, IP and AS layers",
		"primary impact quantified per country",
		"secondary (cascade) failures enumerated by round",
	}
	cascadeNoBGPConstraints = []string{"no BGP dumps available: temporal evolution omitted, impact+cascade only"}
	cascadeNoBGPRisks       = []string{"without routing data the cascade's temporal ordering is model-derived only"}
)

// cascadeWithoutBGP is the length of cascadeTable's prefix that needs
// no BGP dumps.
const cascadeWithoutBGP = 3

func (a *Agent) decomposeCascade(ps *ProblemSpec, data DataAvailability) error {
	ps.Classification = cascadeClassification
	if !data.HasCrossLayerMap {
		return &ErrInfeasible{Reason: "cascade analysis needs the cross-layer map to seed cable failures"}
	}
	if len(ps.Query.Regions) < 2 {
		return &ErrInfeasible{Reason: "cascade analysis needs a corridor: name two regions (e.g. Europe and Asia)"}
	}
	if data.HasBGPStream {
		ps.SubProblems = subProblems(cascadeTable)
		ps.SuccessCriteria = cascadeSuccess
	} else {
		ps.SubProblems = subProblems(cascadeTable[:cascadeWithoutBGP])
		ps.Constraints = cascadeNoBGPConstraints
		ps.Risks = cascadeNoBGPRisks
		ps.SuccessCriteria = cascadeSuccess[1:]
	}
	return nil
}

var (
	forensicClassification = []string{"temporal", "causal", "spatial"}
	forensicTable          = []SubProblem{
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
	forensicSuccess = []string{
		"anomaly presence decided by significance test, not eyeballing",
		"verdict cites at least three independent evidence sources",
		"a specific cable is named, or cable failure is explicitly ruled out",
	}
)

func (a *Agent) decomposeForensic(ps *ProblemSpec, data DataAvailability) error {
	ps.Classification = forensicClassification
	if !data.HasTraceArchive {
		return &ErrInfeasible{Reason: "forensic analysis needs a latency archive covering the anomaly window; none is available"}
	}
	if !data.HasBGPStream {
		return &ErrInfeasible{Reason: "forensic causation needs BGP dumps for independent validation; none are available"}
	}
	if ps.Query.Window.Mentioned && data.WindowDays <= ps.Query.Window.Days {
		var buf [128]byte
		b := append(buf[:0], "archive window ("...)
		b = strconv.AppendInt(b, int64(data.WindowDays), 10)
		b = append(b, "d) barely covers the anomaly onset ("...)
		b = strconv.AppendInt(b, int64(ps.Query.Window.Days), 10)
		b = append(b, "d ago); baseline may be thin"...)
		ps.Risks = []string{string(b)}
	}
	ps.SubProblems = subProblems(forensicTable)
	ps.SuccessCriteria = forensicSuccess
	return nil
}
