// Package expert implements the hand-coded specialist solutions the
// paper compares ArachNet against: the workflows a measurement expert
// using Xaminer/Nautilus directly would write for each case study.
//
// Each baseline also declares its conceptual transformation steps, so
// the evaluator can measure "functional overlap" between the agent's
// generated workflow and the expert's architecture — the paper's
// Level-1 comparison axis.
package expert

import (
	"fmt"
	"sort"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/core"
	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/topo"
	"arachnet/internal/xaminer"
)

// CableImpactSteps are the conceptual transformations of the expert
// Xaminer cable-impact workflow (Case Study 1's comparison basis).
func CableImpactSteps() []string {
	return []string{
		"cable-resolution",
		"cable-dependency",
		"link-extraction",
		"ip-extraction",
		"geo-mapping",
		"aggregation",
		"country-level",
	}
}

// CableImpact is the expert solution to Case Study 1: Xaminer's
// embedding-based country impact for a named cable, built on Nautilus
// mappings.
func CableImpact(env *core.Environment, cableName string) (*xaminer.ImpactReport, error) {
	cab, ok := env.Catalog.ByName(cableName)
	if !ok {
		return nil, fmt.Errorf("expert: unknown cable %q", cableName)
	}
	return env.Analyzer.AnalyzeCableFailure(false, cab.ID)
}

// DisasterImpactSteps are the conceptual transformations of the expert
// multi-disaster workflow (Case Study 2).
func DisasterImpactSteps() []string {
	return []string{"event-selection", "event-processing", "combine", "aggregation"}
}

// DisasterImpact is the expert solution to Case Study 2: process each
// severe earthquake and hurricane with the single event-processing
// function and combine.
func DisasterImpact(env *core.Environment, failProb float64) (xaminer.GlobalImpact, error) {
	var impacts []xaminer.EventImpact
	events := append(xaminer.SevereEarthquakes(), xaminer.SevereHurricanes()...)
	for _, ev := range events {
		im, err := env.Analyzer.ProcessEvent(ev, failProb)
		if err != nil {
			return xaminer.GlobalImpact{}, fmt.Errorf("expert: %s: %w", ev.Name, err)
		}
		impacts = append(impacts, im)
	}
	return xaminer.CombineEventImpacts(env.Analyzer, impacts), nil
}

// CascadeSteps are the conceptual transformations of the expert
// cascading-failure workflow (Case Study 3).
func CascadeSteps() []string {
	return []string{
		"corridor", "cable-dependency", "link-extraction", "impact-analysis",
		"cascade", "dependency-graph", "anomaly-detection", "routing",
		"synthesis", "cross-layer",
	}
}

// CascadeReport bundles the expert Case Study 3 outputs.
type CascadeReport struct {
	Corridor []nautilus.CableID
	Impact   *xaminer.ImpactReport
	Cascade  topo.CableCascade
	Stress   topo.StressResult
	Bursts   []bgp.Burst
	Timeline *core.Timeline
}

// Cascade is the expert solution to Case Study 3: manual integration of
// Nautilus corridor mapping, Xaminer impact, dependency-graph cascade
// modeling, BGP temporal analysis and cross-layer synthesis.
func Cascade(env *core.Environment, regionA, regionB geo.Region) (*CascadeReport, error) {
	corridor := env.Catalog.Between(regionA, regionB)
	if len(corridor) == 0 {
		return nil, fmt.Errorf("expert: no cables between %s and %s", regionA, regionB)
	}
	var ids []nautilus.CableID
	for _, c := range corridor {
		ids = append(ids, c.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	failed := xaminer.FailCables(env.CrossMap, ids...)
	impact := env.Analyzer.AnalyzeLinkFailures("expert-cascade", failed, false)

	cascade := topo.CascadeCables(env.Catalog, env.CrossMap, ids, 1.2)
	allFailed := xaminer.FailCables(env.CrossMap, cascade.Failed...)
	stress := topo.PropagateStress(env.World, allFailed, 0.4, 16)

	var bursts []bgp.Burst
	sc := env.Scenario()
	if sc != nil {
		bursts = bgp.DetectBursts(sc.Stream, time.Hour, 4)
	}
	timeline := core.BuildTimeline(sc, env.Now, impact, core.CascadeBundle{Cable: cascade, Stress: stress}, bursts, nil)
	return &CascadeReport{
		Corridor: ids, Impact: impact, Cascade: cascade, Stress: stress,
		Bursts: bursts, Timeline: timeline,
	}, nil
}

// ForensicSteps are the conceptual transformations of the expert
// root-cause workflow (Case Study 4).
func ForensicSteps() []string {
	return []string{
		"measurement-data", "anomaly-detection", "statistical", "routing-data",
		"infrastructure-correlation", "temporal-correlation", "validation",
		"evidence-synthesis", "causation",
	}
}

// Forensic is the expert solution to Case Study 4: statistical anomaly
// detection, infrastructure correlation, BGP validation, evidence
// fusion. It shares the statistical core with the agent's capabilities
// (the comparison is about workflow architecture, not detector
// implementations).
func Forensic(env *core.Environment) (core.Verdict, error) {
	sc := env.Scenario()
	if sc == nil || sc.Archive == nil || len(sc.Stream) == 0 {
		return core.Verdict{}, fmt.Errorf("expert: forensic baseline needs scenario data")
	}
	finding := core.DetectLatencyShift(sc.Archive)
	suspects := core.RankSuspectCables(env, finding, sc.Stream)
	correlation := 0.0
	if finding.Detected {
		correlation = bgp.CorrelateWindow(sc.Stream,
			finding.ShiftAt.Add(-2*time.Hour), finding.ShiftAt.Add(6*time.Hour))
	}
	return core.SynthesizeVerdict(finding, suspects, correlation), nil
}
