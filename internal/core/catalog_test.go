package core

import (
	"net/netip"
	"strings"
	"testing"

	"arachnet/internal/bgp"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
	"arachnet/internal/registry"
	"arachnet/internal/xaminer"
)

// invoke runs one capability directly against an environment.
func invoke(t testing.TB, env *Environment, name string, in map[string]any) (map[string]any, error) {
	t.Helper()
	reg := BuiltinRegistry()
	cap, err := reg.Get(name)
	if err != nil {
		t.Fatalf("capability %s: %v", name, err)
	}
	call := &registry.Call{In: in, Out: map[string]any{}, Env: env}
	err = cap.Impl(call)
	return call.Out, err
}

func TestCapResolveCable(t *testing.T) {
	env := testEnv(t, false)
	out, err := invoke(t, env, "nautilus.resolve_cable", map[string]any{"name": "SeaMeWe-5"})
	if err != nil {
		t.Fatal(err)
	}
	if out["cable"] != nautilus.CableID("seamewe-5") {
		t.Errorf("cable = %v", out["cable"])
	}
	if _, err := invoke(t, env, "nautilus.resolve_cable", map[string]any{"name": "bogus-9"}); err == nil {
		t.Error("unknown cable accepted")
	}
	if _, err := invoke(t, env, "nautilus.resolve_cable", map[string]any{"name": 42}); err == nil {
		t.Error("non-string input accepted")
	}
	if _, err := invoke(t, env, "nautilus.resolve_cable", nil); err == nil {
		t.Error("missing input accepted")
	}
}

func TestCapCableToSetAndLinks(t *testing.T) {
	env := testEnv(t, false)
	out, err := invoke(t, env, "nautilus.cable_to_set", map[string]any{"cable": nautilus.CableID("flag-ea")})
	if err != nil {
		t.Fatal(err)
	}
	cables := out["cables"].([]nautilus.CableID)
	if len(cables) != 1 || cables[0] != "flag-ea" {
		t.Errorf("cables = %v", cables)
	}
	out, err = invoke(t, env, "nautilus.links_on_cables", map[string]any{"cables": cables})
	if err != nil {
		t.Fatal(err)
	}
	links := out["links"].([]netsim.LinkID)
	if len(links) != len(env.CrossMap.LinksOn("flag-ea")) {
		t.Errorf("links = %d, want %d", len(links), len(env.CrossMap.LinksOn("flag-ea")))
	}
	for i := 1; i < len(links); i++ {
		if links[i-1] >= links[i] {
			t.Fatal("links not sorted")
		}
	}
}

func TestCapCablesBetweenRegions(t *testing.T) {
	env := testEnv(t, false)
	out, err := invoke(t, env, "nautilus.cables_between_regions",
		map[string]any{"region_a": "Europe", "region_b": "Asia"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["cables"].([]nautilus.CableID)) < 4 {
		t.Errorf("corridor = %v", out["cables"])
	}
	if _, err := invoke(t, env, "nautilus.cables_between_regions",
		map[string]any{"region_a": "Narnia", "region_b": "Asia"}); err == nil {
		t.Error("bad region accepted")
	}
}

func TestCapExtractIPsAndLocate(t *testing.T) {
	env := testEnv(t, false)
	links := env.CrossMap.LinksOn("flag-ea")
	if len(links) == 0 {
		t.Skip("no links on flag-ea in this world")
	}
	out, err := invoke(t, env, "nautilus.extract_ips", map[string]any{"links": links})
	if err != nil {
		t.Fatal(err)
	}
	ips := out["ips"].([]netip.Addr)
	if len(ips) == 0 {
		t.Fatal("no IPs")
	}
	out, err = invoke(t, env, "geo.locate_ips", map[string]any{"ips": ips})
	if err != nil {
		t.Fatal(err)
	}
	rows := out["geo"].([]GeoRow)
	if len(rows) != len(ips) {
		t.Errorf("geolocated %d of %d", len(rows), len(ips))
	}
}

func TestCapCountryRollupMatchesXaminerCounts(t *testing.T) {
	env := testEnv(t, false)
	links := env.CrossMap.LinksOn("flag-ea")
	if len(links) == 0 {
		t.Skip("no links on flag-ea")
	}
	ipsOut, err := invoke(t, env, "nautilus.extract_ips", map[string]any{"links": links})
	if err != nil {
		t.Fatal(err)
	}
	geoOut, err := invoke(t, env, "geo.locate_ips", map[string]any{"ips": ipsOut["ips"]})
	if err != nil {
		t.Fatal(err)
	}
	rollOut, err := invoke(t, env, "report.country_rollup",
		map[string]any{"geo": geoOut["geo"], "links": links})
	if err != nil {
		t.Fatal(err)
	}
	direct := rollOut["report"].(*xaminer.ImpactReport)

	xamOut, err := invoke(t, env, "xaminer.impact_from_links", map[string]any{"links": links})
	if err != nil {
		t.Fatal(err)
	}
	embedded := xamOut["report"].(*xaminer.ImpactReport)

	// The two aggregations are architecturally different but must agree
	// on link attribution per country (the CS1 equivalence essence).
	for _, ci := range embedded.Countries {
		if direct.CountryScore(ci.Country) == 0 && ci.Score > 0 {
			t.Errorf("direct rollup missed country %s", ci.Country)
		}
	}
}

func TestCapRender(t *testing.T) {
	env := testEnv(t, false)
	rep := env.Analyzer.AnalyzeLinkFailures("x", map[netsim.LinkID]bool{1: true}, false)
	out, err := invoke(t, env, "report.render", map[string]any{"report": rep})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["text"].(string), "country") {
		t.Errorf("render = %q", out["text"])
	}
	if _, err := invoke(t, env, "report.render", map[string]any{"report": "nope"}); err == nil {
		t.Error("bad report type accepted")
	}
}

func TestCapEventCatalogValidation(t *testing.T) {
	env := testEnv(t, false)
	out, err := invoke(t, env, "xaminer.event_catalog", map[string]any{"types": []string{"earthquake", "typhoon"}})
	if err != nil {
		t.Fatal(err)
	}
	events := out["events"].([]xaminer.Event)
	if len(events) != len(xaminer.SevereEarthquakes())+len(xaminer.SevereHurricanes()) {
		t.Errorf("events = %d", len(events))
	}
	if _, err := invoke(t, env, "xaminer.event_catalog", map[string]any{"types": []string{"volcano"}}); err == nil {
		t.Error("unknown disaster type accepted")
	}
}

func TestCapProcessAndCombine(t *testing.T) {
	env := testEnv(t, false)
	events := xaminer.SevereEarthquakes()[:2]
	out, err := invoke(t, env, "xaminer.process_events",
		map[string]any{"events": events, "fail_prob": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	impacts := out["impacts"].([]xaminer.EventImpact)
	if len(impacts) != 2 {
		t.Fatalf("impacts = %d", len(impacts))
	}
	if _, err := invoke(t, env, "xaminer.process_events",
		map[string]any{"events": events, "fail_prob": 1.5}); err == nil {
		t.Error("bad probability accepted")
	}
	comb, err := invoke(t, env, "xaminer.combine_impacts", map[string]any{"impacts": impacts})
	if err != nil {
		t.Fatal(err)
	}
	g := comb["global"].(xaminer.GlobalImpact)
	if len(g.Events) != 2 {
		t.Errorf("combined events = %v", g.Events)
	}
}

func TestCapTemporalRequireScenario(t *testing.T) {
	env := testEnv(t, false) // no scenario
	if _, err := invoke(t, env, "bgp.updates_window", nil); err == nil {
		t.Error("stream served without scenario")
	}
	if _, err := invoke(t, env, "traceroute.archive_window", nil); err == nil {
		t.Error("archive served without scenario")
	}
}

func TestCapDetectBurstsAndCorrelate(t *testing.T) {
	env := testEnv(t, true)
	streamOut, err := invoke(t, env, "bgp.updates_window", nil)
	if err != nil {
		t.Fatal(err)
	}
	burstOut, err := invoke(t, env, "bgp.detect_bursts", map[string]any{"stream": streamOut["stream"]})
	if err != nil {
		t.Fatal(err)
	}
	_ = burstOut["bursts"].([]bgp.Burst)

	archOut, err := invoke(t, env, "traceroute.archive_window", nil)
	if err != nil {
		t.Fatal(err)
	}
	anomOut, err := invoke(t, env, "traceroute.detect_latency_anomaly",
		map[string]any{"archive": archOut["archive"]})
	if err != nil {
		t.Fatal(err)
	}
	finding := anomOut["anomaly"].(LatencyFinding)
	if !finding.Detected {
		t.Fatal("scenario anomaly not detected")
	}
	corrOut, err := invoke(t, env, "bgp.correlate_anomaly",
		map[string]any{"stream": streamOut["stream"], "anomaly": finding})
	if err != nil {
		t.Fatal(err)
	}
	corr := corrOut["correlation"].(float64)
	if corr <= 0.25 {
		t.Errorf("correlation = %f, want strong", corr)
	}
	// Undetected anomaly → zero correlation, no error.
	corrOut, err = invoke(t, env, "bgp.correlate_anomaly",
		map[string]any{"stream": streamOut["stream"], "anomaly": LatencyFinding{}})
	if err != nil || corrOut["correlation"].(float64) != 0 {
		t.Errorf("undetected anomaly: %v, %v", corrOut["correlation"], err)
	}
}

func TestCapCascadeAndStress(t *testing.T) {
	env := testEnv(t, false)
	out, err := invoke(t, env, "topo.cascade_cables",
		map[string]any{"cables": []nautilus.CableID{"flag-ea"}, "capacity_factor": 1.1})
	if err != nil {
		t.Fatal(err)
	}
	bundle := out["cascade"].(CascadeBundle)
	if len(bundle.Cable.Rounds) == 0 {
		t.Error("no cascade rounds")
	}
	links := env.CrossMap.LinksOn("flag-ea")
	sOut, err := invoke(t, env, "topo.propagate_stress",
		map[string]any{"links": links, "threshold": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	_ = sOut["stress"]
}

func TestCapSuspectsAndVerdict(t *testing.T) {
	env := testEnv(t, true)
	finding := DetectLatencyShift(env.Scenario().Archive)
	if !finding.Detected {
		t.Fatal("anomaly undetected")
	}
	out, err := invoke(t, env, "nautilus.suspect_cables",
		map[string]any{"anomaly": finding, "stream": env.Scenario().Stream})
	if err != nil {
		t.Fatal(err)
	}
	suspects := out["suspects"].([]CableSuspect)
	if len(suspects) == 0 {
		t.Fatal("no suspects")
	}
	if suspects[0].Cable != env.Scenario().TrueCable {
		t.Errorf("top suspect %s, truth %s", suspects[0].Cable, env.Scenario().TrueCable)
	}
	vOut, err := invoke(t, env, "forensic.synthesize",
		map[string]any{"anomaly": finding, "suspects": suspects, "correlation": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	v := vOut["verdict"].(Verdict)
	if !v.CauseIsCableFailure || v.Cable != env.Scenario().TrueCable {
		t.Errorf("verdict = %+v", v)
	}
}

func TestCapTimelineRequiredInputs(t *testing.T) {
	env := testEnv(t, true)
	rep := env.Analyzer.AnalyzeLinkFailures("x", nil, false)
	out, err := invoke(t, env, "synthesis.timeline", map[string]any{
		"report":  rep,
		"cascade": CascadeBundle{},
		"bursts":  []bgp.Burst{},
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := out["timeline"].(*Timeline)
	if len(tl.Entries) == 0 {
		t.Error("empty timeline")
	}
	if _, err := invoke(t, env, "synthesis.timeline", map[string]any{
		"report": "wrong", "cascade": CascadeBundle{}, "bursts": []bgp.Burst{},
	}); err == nil {
		t.Error("bad report type accepted")
	}
}

func TestCapMapCoverage(t *testing.T) {
	env := testEnv(t, false)
	out, err := invoke(t, env, "nautilus.map_coverage", nil)
	if err != nil {
		t.Fatal(err)
	}
	cov := out["coverage"].(float64)
	if cov <= 0 || cov > 1 {
		t.Errorf("coverage = %f", cov)
	}
}

func TestCapEnvTypeGuard(t *testing.T) {
	reg := BuiltinRegistry()
	cap, err := reg.Get("nautilus.map_coverage")
	if err != nil {
		t.Fatal(err)
	}
	call := &registry.Call{In: nil, Out: map[string]any{}, Env: "not-an-environment"}
	if err := cap.Impl(call); err == nil {
		t.Error("wrong env type accepted")
	}
}

func TestVerdictConfidenceNeverExceedsOne(t *testing.T) {
	f := LatencyFinding{Detected: true, Confidence: 1.0, DeltaMs: 100}
	suspects := []CableSuspect{{Cable: "x", Score: 1.0}}
	v := SynthesizeVerdict(f, suspects, 1.0)
	if v.Confidence < 0 || v.Confidence > 1 {
		t.Errorf("confidence = %f", v.Confidence)
	}
	// No suspects: no causation, no panic.
	v = SynthesizeVerdict(f, nil, 1.0)
	if v.CauseIsCableFailure {
		t.Error("causation with no suspects")
	}
}

func TestSplitProbeName(t *testing.T) {
	got := splitProbeName("GB-SG-3")
	if len(got) != 2 || got[0] != "GB" || got[1] != "SG" {
		t.Errorf("splitProbeName = %v", got)
	}
	if got := splitProbeName("weird"); len(got) != 0 {
		t.Errorf("splitProbeName(weird) = %v", got)
	}
}
