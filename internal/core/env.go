package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
	"arachnet/internal/traceroute"
	"arachnet/internal/xaminer"
)

// defaultNow is the fixed "wall clock" of the simulation, so every run
// is reproducible.
var defaultNow = time.Date(2025, 6, 15, 12, 0, 0, 0, time.UTC)

// envSeq hands every Environment a process-unique identity for cache
// fingerprinting.
var envSeq atomic.Uint64

// Environment facets: the independently mutable parts of an
// Environment a capability may declare it Reads (registry.Capability).
// Step-cache fingerprints are scoped to the declared facets, so
// mutating one facet dirties only the steps that read it.
const (
	// FacetWorld covers the generated world, the cable catalog, the
	// cross-layer map and the analyzer — immutable once the environment
	// is built.
	FacetWorld = "world"
	// FacetScenario covers the injected measurement scenario (trace
	// archive, BGP stream, failure ground truth) — replaced by every
	// InjectCableFailureScenario.
	FacetScenario = "scenario"
)

// envEpoch is one immutable state of an Environment: its scenario, its
// process-unique identity and mutation count, and the fingerprints
// rendered from them, swapped in whole by every mutation. A run loads
// one epoch, keys its caches with it and hands it to its capabilities
// as their environment: the embedded *Environment supplies the world
// parts, which never change, and Scenario, Data and FacetFingerprint
// are shadowed, so no capability sees a later epoch mid-run.
type envEpoch struct {
	*Environment
	scenario            *Scenario
	id, mutations       uint64
	full, world, scenFP string
}

// newEpoch renders the fingerprints of state (sc, id, mutations) of e.
func (e *Environment) newEpoch(sc *Scenario, id, mutations uint64) *envEpoch {
	return &envEpoch{
		Environment: e, scenario: sc, id: id, mutations: mutations,
		full:   fmt.Sprintf("env%d.%d", id, mutations),
		world:  fmt.Sprintf("env%d.w", id),
		scenFP: fmt.Sprintf("env%d.s%d", id, mutations),
	}
}

// current returns the environment's current epoch; a hand-built
// Environment literal gets its first one on first use.
func (e *Environment) current() *envEpoch {
	if ep := e.state.Load(); ep != nil {
		return ep
	}
	e.state.CompareAndSwap(nil, e.newEpoch(nil, envSeq.Add(1), 0))
	return e.state.Load()
}

// Fingerprint uniquely identifies this environment instance and its
// mutation epoch. It is mixed into every step-cache key, so memoized
// results computed against one environment (or against this one before
// a scenario was injected) are never served against another. The
// identity is deliberately per-instance rather than content-derived:
// two worlds built from the same seed would produce identical results,
// but proving that is the cache's job only within one environment.
// (LoadSnapshot is the one deliberate exception: it validates content
// equivalence and then adopts the saved identity.)
func (e *Environment) Fingerprint() string { return e.current().full }

// FacetFingerprint scopes the fingerprint to the environment facets a
// capability declares it Reads. Steps reading only FacetWorld keep
// their fingerprints across scenario injections — that is what lets a
// standing query replay them from the step cache while only the
// scenario-dependent subgraph re-executes. An empty or unrecognized
// facet list falls back to the full Fingerprint (always safe).
func (e *Environment) FacetFingerprint(reads []string) string {
	return e.current().FacetFingerprint(reads)
}

// FacetFingerprint is Environment.FacetFingerprint at this epoch.
func (ep *envEpoch) FacetFingerprint(reads []string) string {
	if len(reads) == 0 {
		return ep.full
	}
	scenario := false
	for _, r := range reads {
		switch r {
		case FacetWorld:
		case FacetScenario:
			scenario = true
		default:
			return ep.full
		}
	}
	if scenario {
		// Scenario readers see the mutation count: every injection
		// replaces the scenario, which is the only mutable facet today.
		return ep.scenFP
	}
	// World-only readers: identity without the count — the world never
	// changes in place.
	return ep.world
}

// Epoch returns the environment's mutation epoch: 0 at construction,
// bumped by every in-place change (scenario injection). Standing
// queries compare epochs to attribute a wake-up to the environment.
func (e *Environment) Epoch() uint64 { return e.current().mutations }

// adoptFingerprint rebinds the environment's cache identity to a saved
// one and returns the new epoch, or nil, changing nothing, when the
// environment left epoch from. This is the snapshot-restore seam:
// step-cache keys persisted by a previous process embed that process's
// (identity, epoch), so after LoadSnapshot has proven from's scenario
// content-equivalent the environment takes over the saved identity and
// the persisted keys resolve. Identities only need to be unique within
// one System (caches are per-System), so adopting a foreign one is
// safe; entries cached under the old identity age out of the LRU.
func (e *Environment) adoptFingerprint(from *envEpoch, id, mutations uint64) *envEpoch {
	next := e.newEpoch(from.scenario, id, mutations)
	if !e.state.CompareAndSwap(from, next) {
		return nil
	}
	return next
}

// Watch registers ch to be poked — a non-blocking send of one empty
// struct — after every environment mutation (scenario injection). A
// buffered channel of capacity 1 coalesces mutation bursts into one
// wake-up; the watcher re-reads Fingerprint to decide what changed.
// This is the push seam System.Subscribe builds on: subscribers are
// poked, never polling.
func (e *Environment) Watch(ch chan<- struct{}) {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	e.watchers = append(e.watchers, ch)
}

// Unwatch removes a channel registered with Watch. Unknown channels
// are ignored.
func (e *Environment) Unwatch(ch chan<- struct{}) {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	for i, w := range e.watchers {
		if w == ch {
			e.watchers = append(e.watchers[:i], e.watchers[i+1:]...)
			return
		}
	}
}

// Clone returns a new Environment over the same immutable world,
// catalog, cross-layer map and analyzer, with its own mutation
// identity: the clone starts at epoch 0, carries the source's current
// scenario (the *Scenario itself is never mutated in place — injection
// replaces it), and has no watchers. Mutations on the clone are
// invisible to the source and vice versa, which is what gives each
// serving tenant its own scenario timeline over one generated world.
func (e *Environment) Clone() *Environment {
	c := &Environment{World: e.World, Catalog: e.Catalog, CrossMap: e.CrossMap, Analyzer: e.Analyzer, Now: e.Now}
	c.state.Store(c.newEpoch(e.Scenario(), envSeq.Add(1), 0))
	return c
}

// NewEnvironment generates a world from the config, runs the Nautilus
// cross-layer mapping, and prepares the Xaminer analyzer. No scenario
// data is injected; call InjectCableFailureScenario for temporal and
// forensic analyses.
func NewEnvironment(cfg netsim.Config) (*Environment, error) {
	w, err := netsim.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: generate world: %w", err)
	}
	cat := nautilus.BuildCatalog()
	m, err := nautilus.MapWorld(w, cat)
	if err != nil {
		return nil, fmt.Errorf("core: cross-layer mapping: %w", err)
	}
	an, err := xaminer.NewAnalyzer(w, cat, m)
	if err != nil {
		return nil, fmt.Errorf("core: analyzer: %w", err)
	}
	return &Environment{World: w, Catalog: cat, CrossMap: m, Analyzer: an, Now: defaultNow}, nil
}

// ScenarioConfig controls forensic-scenario injection.
type ScenarioConfig struct {
	// Cable to fail; empty picks the busiest Europe–Asia cable.
	Cable nautilus.CableID
	// DaysBeforeNow places the failure (default 3).
	DaysBeforeNow int
	// WindowDays is the total archive window ending at Now (default 7).
	WindowDays int
	// ProbePairs bounds the number of Europe→Asia probe pairs (default 6).
	ProbePairs int
	Seed       uint64
}

// InjectCableFailureScenario builds the measurement record of a cable
// failure: a multi-day Europe→Asia traceroute campaign and a BGP update
// stream, with the cable's links failing DaysBeforeNow days before the
// environment's Now. The injected ground truth is recorded on the
// scenario for evaluation but never exposed through the registry.
func (e *Environment) InjectCableFailureScenario(sc ScenarioConfig) error {
	if sc.DaysBeforeNow <= 0 {
		sc.DaysBeforeNow = 3
	}
	if sc.WindowDays <= sc.DaysBeforeNow {
		sc.WindowDays = sc.DaysBeforeNow + 4
	}
	if sc.ProbePairs <= 0 {
		sc.ProbePairs = 6
	}
	cable := sc.Cable
	if cable == "" {
		var best nautilus.CableID
		bestN := -1
		for _, c := range e.Catalog.Between("Europe", "Asia") {
			if n := len(e.CrossMap.LinksOn(c.ID)); n > bestN {
				best, bestN = c.ID, n
			}
		}
		if bestN <= 0 {
			return fmt.Errorf("core: no Europe-Asia cable carries links in this world")
		}
		cable = best
	}
	links := e.CrossMap.LinksOn(cable)
	if len(links) == 0 {
		return fmt.Errorf("core: cable %q carries no links; scenario would be vacuous", cable)
	}

	start := e.Now.Add(-time.Duration(sc.WindowDays) * 24 * time.Hour)
	failAt := e.Now.Add(-time.Duration(sc.DaysBeforeNow) * 24 * time.Hour)

	// Probe selection, the campaign and the update stream route over
	// the same two tables, healthy and failed; each is built once, and
	// dropped with this injection.
	tables := bgp.NewTables(e.World)
	probes, err := e.europeAsiaProbes(tables, sc.ProbePairs, links)
	if err != nil {
		return err
	}
	event := bgp.FailureEvent{At: failAt, Links: links, Label: "cable:" + string(cable)}
	arch, err := traceroute.RunCampaign(tables, traceroute.Campaign{
		Probes:   probes,
		Start:    start,
		End:      e.Now,
		Interval: time.Hour,
		Events:   []bgp.FailureEvent{event},
		Seed:     sc.Seed ^ 0x5bd1e995,
	})
	if err != nil {
		return fmt.Errorf("core: campaign: %w", err)
	}
	collectors := e.collectorASes(3)
	stream, err := bgp.GenerateStream(tables, []bgp.FailureEvent{event}, bgp.StreamConfig{
		Start: start, End: e.Now, Collectors: collectors,
		NoisePerHour: 6, Seed: sc.Seed ^ 0x9e3779b9,
	})
	if err != nil {
		return fmt.Errorf("core: stream: %w", err)
	}
	next := &Scenario{
		Start: start, End: e.Now, FailureAt: failAt,
		TrueCable: cable, FailedLink: links,
		Archive: arch, Stream: stream,
	}
	// A new epoch retires every memoized step result computed over the
	// previous scenario. Concurrent injections each count once.
	for {
		old := e.current()
		if e.state.CompareAndSwap(old, e.newEpoch(next, old.id, old.mutations+1)) {
			break
		}
	}
	e.watchMu.Lock()
	for _, ch := range e.watchers {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a pending poke
		}
	}
	e.watchMu.Unlock()
	return nil
}

// europeAsiaProbes builds probe pairs from European stub routers to
// Asian stub destinations. Pairs whose routing survives the failure
// with a changed path are preferred — those are the vantage points that
// observe the paper's "sudden increase in latency" rather than a
// blackout — followed by pairs that go dark, then unaffected pairs.
func (e *Environment) europeAsiaProbes(tables *bgp.Tables, n int, failedLinks []netsim.LinkID) ([]traceroute.Probe, error) {
	var srcs []netsim.Router
	var dsts []netsim.Router
	for _, a := range e.World.ASes {
		if a.Tier != netsim.Stub {
			continue
		}
		r, ok := e.World.RouterIn(a.ASN, a.Home)
		if !ok {
			continue
		}
		switch region(a.Home) {
		case "Europe":
			srcs = append(srcs, r)
		case "Asia":
			dsts = append(dsts, r)
		}
	}
	if len(srcs) == 0 || len(dsts) == 0 {
		return nil, fmt.Errorf("core: world lacks European or Asian stubs for probing")
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].ID < srcs[j].ID })
	sort.Slice(dsts, func(i, j int) bool { return dsts[i].ID < dsts[j].ID })

	failSet := map[netsim.LinkID]bool{}
	for _, id := range failedLinks {
		failSet[id] = true
	}
	before := tables.Table(nil)
	after := tables.Table(failSet)
	prober := traceroute.NewProber(e.World)

	type rankedProbe struct {
		probe   traceroute.Probe
		deltaMs float64
	}
	// Bound the candidate grid so scenario injection stays fast on the
	// full world.
	const maxSide = 14
	if len(srcs) > maxSide {
		srcs = srcs[:maxSide]
	}
	if len(dsts) > maxSide {
		dsts = dsts[:maxSide]
	}

	var shifted []rankedProbe
	var lost, stable []traceroute.Probe
	for si, s := range srcs {
		for di, d := range dsts {
			p := traceroute.Probe{
				Name: fmt.Sprintf("%s-%s-%d", s.Country, d.Country, si*len(dsts)+di),
				Src:  s.ID,
				Dst:  d.Addr,
			}
			// Cable failures usually reroute below the AS level (a
			// different exit link or a backbone detour), so classify by
			// tracing the actual data path, not by comparing AS paths.
			pb, err1 := prober.Trace(before, nil, s.ID, d.Addr, 1)
			pa, err2 := prober.Trace(after, failSet, s.ID, d.Addr, 1)
			switch {
			case err1 != nil || err2 != nil || !pb.Reached:
				stable = append(stable, p)
			case !pa.Reached:
				lost = append(lost, p)
			default:
				shifted = append(shifted, rankedProbe{probe: p, deltaMs: pa.RTTms - pb.RTTms})
			}
		}
	}
	// Largest latency increases first; they anchor the detection.
	sort.SliceStable(shifted, func(i, j int) bool { return shifted[i].deltaMs > shifted[j].deltaMs })
	var probes []traceroute.Probe
	for _, rp := range shifted {
		if rp.deltaMs > 2.0 {
			probes = append(probes, rp.probe)
		}
	}
	probes = append(probes, lost...)
	for _, rp := range shifted {
		if rp.deltaMs <= 2.0 {
			probes = append(probes, rp.probe)
		}
	}
	probes = append(probes, stable...)
	if len(probes) > n {
		probes = probes[:n]
	}
	return probes, nil
}

func region(code string) string {
	r, ok := geo.RegionOf(code)
	if !ok {
		return ""
	}
	return string(r)
}

// collectorASes picks the first n tier-1 ASes as BGP collectors.
func (e *Environment) collectorASes(n int) []netsim.ASN {
	var out []netsim.ASN
	for _, a := range e.World.ASes {
		if a.Tier == netsim.Tier1 {
			out = append(out, a.ASN)
			if len(out) == n {
				break
			}
		}
	}
	if len(out) == 0 && len(e.World.ASes) > 0 {
		out = append(out, e.World.ASes[0].ASN)
	}
	return out
}
