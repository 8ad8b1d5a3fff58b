// Package xaminer reimplements the capability surface of the Xaminer
// cross-layer resilience analysis tool (Ramanathan, Sankaran & Abdu
// Jyothi, 2024): failure-scenario construction, cross-layer impact
// metrics aggregated at country and AS level (Xaminer's "embedding"
// metrics: IPs, links, ASes and AS links per country, normalized), and
// disaster-event processing with failure probabilities.
package xaminer

import (
	"fmt"
	"sort"

	"arachnet/internal/bgp"
	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
)

// FailCables translates cable failures into the set of IP links lost,
// using the cross-layer map's best-candidate assignment.
func FailCables(m *nautilus.CrossLayerMap, cables ...nautilus.CableID) map[netsim.LinkID]bool {
	failed := make(map[netsim.LinkID]bool)
	for _, c := range cables {
		for _, id := range m.LinksOn(c) {
			failed[id] = true
		}
	}
	return failed
}

// CountryImpact is Xaminer's per-country embedding: losses across the
// four cross-layer metrics with their in-country totals. Lost counts
// are float64 so expectation-mode event processing can report
// fractional expected losses.
type CountryImpact struct {
	Country     string
	LinksLost   float64
	LinksTotal  int
	IPsLost     float64
	IPsTotal    int
	ASesHit     float64
	ASesTotal   int
	ASLinksLost float64
	ASLinksTot  int
	Score       float64 // normalized composite in [0,1]
}

// ScoreOf computes the normalized composite: the mean of the four
// loss fractions (metrics with zero totals are skipped). Exported so
// scatter-gather merges (internal/core's fleet specs) can recompute
// scores with exactly the arithmetic the unsharded path uses.
func ScoreOf(ci CountryImpact) float64 { return scoreOf(ci) }

// scoreOf computes the normalized composite: the mean of the four
// loss fractions (metrics with zero totals are skipped).
func scoreOf(ci CountryImpact) float64 {
	var sum float64
	var n int
	add := func(lost float64, total int) {
		if total > 0 {
			f := lost / float64(total)
			if f > 1 {
				f = 1
			}
			sum += f
			n++
		}
	}
	add(ci.LinksLost, ci.LinksTotal)
	add(ci.IPsLost, ci.IPsTotal)
	add(ci.ASesHit, ci.ASesTotal)
	add(ci.ASLinksLost, ci.ASLinksTot)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ImpactReport is the output of a failure-scenario analysis.
type ImpactReport struct {
	Scenario    string
	FailedLinks int
	// Countries is sorted by descending Score (ties by code).
	Countries []CountryImpact
	// ReachabilityLossPct is the percentage of AS pairs that lost
	// connectivity, when routing analysis was requested (else 0).
	ReachabilityLossPct float64
}

// TopCountries returns the n highest-impact country codes.
func (r *ImpactReport) TopCountries(n int) []string {
	if n > len(r.Countries) {
		n = len(r.Countries)
	}
	out := make([]string, 0, n)
	for _, c := range r.Countries[:n] {
		out = append(out, c.Country)
	}
	return out
}

// CountryScore returns the composite score of one country (0 when the
// country is absent from the report).
func (r *ImpactReport) CountryScore(code string) float64 {
	for _, c := range r.Countries {
		if c.Country == code {
			return c.Score
		}
	}
	return 0
}

// Analyzer runs impact analyses over one world and its cross-layer map.
type Analyzer struct {
	w   *netsim.World
	cat *nautilus.Catalog
	m   *nautilus.CrossLayerMap

	// Per-country totals, computed once.
	linksTotal   map[string]int
	ipsTotal     map[string]int
	asesTotal    map[string]int
	aslinksTotal map[string]int
	// routerCosLat[i] is geo.CosLat of w.Routers[i], for radius tests.
	routerCosLat []float64
}

// NewAnalyzer builds an analyzer. The catalog and map may be nil when
// only link-level scenarios (no cable or event processing) are needed.
func NewAnalyzer(w *netsim.World, cat *nautilus.Catalog, m *nautilus.CrossLayerMap) (*Analyzer, error) {
	if w == nil {
		return nil, fmt.Errorf("xaminer: nil world")
	}
	a := &Analyzer{
		w: w, cat: cat, m: m,
		linksTotal:   map[string]int{},
		ipsTotal:     map[string]int{},
		asesTotal:    map[string]int{},
		aslinksTotal: map[string]int{},
	}
	a.routerCosLat = make([]float64, len(w.Routers))
	for i, r := range w.Routers {
		a.ipsTotal[r.Country]++
		a.routerCosLat[i] = geo.CosLat(r.Loc)
	}
	for _, l := range w.IPLinks {
		ca, cb := w.LinkEndpoints(l)
		a.linksTotal[ca]++
		if cb != ca {
			a.linksTotal[cb]++
		}
		if !l.IntraAS {
			a.aslinksTotal[ca]++
			if cb != ca {
				a.aslinksTotal[cb]++
			}
		}
	}
	for _, as := range w.ASes {
		for _, cc := range as.Presence {
			a.asesTotal[cc]++
		}
	}
	return a, nil
}

// World returns the analyzer's world.
func (a *Analyzer) World() *netsim.World { return a.w }

// Map returns the analyzer's cross-layer map (may be nil).
func (a *Analyzer) Map() *nautilus.CrossLayerMap { return a.m }

// Catalog returns the analyzer's cable catalog (may be nil).
func (a *Analyzer) Catalog() *nautilus.Catalog { return a.cat }

// AnalyzeLinkFailures computes the cross-layer country impact of a set
// of failed IP links. When withRouting is true it additionally computes
// the AS-pair reachability loss via BGP table recomputation (more
// expensive).
func (a *Analyzer) AnalyzeLinkFailures(scenario string, failed map[netsim.LinkID]bool, withRouting bool) *ImpactReport {
	acc := newAccumulator()
	for id := range failed {
		l, ok := a.w.LinkByID(id)
		if !ok {
			continue
		}
		acc.addLink(a.w, l, 1.0)
	}
	rep := acc.report(a, scenario, len(failed))
	if withRouting {
		rep.ReachabilityLossPct = a.reachabilityLoss(failed)
	}
	return rep
}

// AnalyzeCableFailure is the convenience entry for "what if cable X
// fails": cable → links → impact.
func (a *Analyzer) AnalyzeCableFailure(withRouting bool, cables ...nautilus.CableID) (*ImpactReport, error) {
	if a.m == nil {
		return nil, fmt.Errorf("xaminer: analyzer has no cross-layer map")
	}
	for _, c := range cables {
		if a.cat != nil {
			if _, ok := a.cat.ByID(c); !ok {
				return nil, fmt.Errorf("xaminer: unknown cable %q", c)
			}
		}
	}
	failed := FailCables(a.m, cables...)
	name := "cable-failure"
	if len(cables) == 1 {
		name = fmt.Sprintf("cable-failure:%s", cables[0])
	}
	return a.AnalyzeLinkFailures(name, failed, withRouting), nil
}

func (a *Analyzer) reachabilityLoss(failed map[netsim.LinkID]bool) float64 {
	base := bgp.ComputeTable(a.w, nil)
	after := bgp.ComputeTable(a.w, failed)
	baseReach, _ := base.ReachabilityMatrixSize()
	afterReach, _ := after.ReachabilityMatrixSize()
	if baseReach == 0 {
		return 0
	}
	return 100 * float64(baseReach-afterReach) / float64(baseReach)
}

// accumulator gathers weighted per-country losses.
type accumulator struct {
	links   map[string]float64
	ips     map[string]float64
	ases    map[string]map[netsim.ASN]float64
	aslinks map[string]float64
}

func newAccumulator() *accumulator {
	return &accumulator{
		links:   map[string]float64{},
		ips:     map[string]float64{},
		ases:    map[string]map[netsim.ASN]float64{},
		aslinks: map[string]float64{},
	}
}

// addLink records one failed link with a probability weight (1 for
// deterministic scenarios, failure probability for expectation mode).
func (acc *accumulator) addLink(w *netsim.World, l netsim.IPLink, weight float64) {
	ca, cb := w.LinkEndpoints(l)
	acc.links[ca] += weight
	if cb != ca {
		acc.links[cb] += weight
	}
	acc.ips[ca] += weight // the src interface address
	acc.ips[cb] += weight // the dst interface address
	if !l.IntraAS {
		acc.aslinks[ca] += weight
		if cb != ca {
			acc.aslinks[cb] += weight
		}
	}
	markAS := func(cc string, asn netsim.ASN) {
		if acc.ases[cc] == nil {
			acc.ases[cc] = map[netsim.ASN]float64{}
		}
		if acc.ases[cc][asn] < weight {
			acc.ases[cc][asn] = weight // an AS is hit with the max weight seen
		}
	}
	markAS(ca, l.ASLinkAB[0])
	markAS(cb, l.ASLinkAB[1])
}

func (acc *accumulator) report(a *Analyzer, scenario string, failedLinks int) *ImpactReport {
	countries := map[string]bool{}
	for cc := range acc.links {
		countries[cc] = true
	}
	for cc := range acc.ips {
		countries[cc] = true
	}
	rep := &ImpactReport{Scenario: scenario, FailedLinks: failedLinks}
	for cc := range countries {
		var asesHit float64
		for _, wgt := range acc.ases[cc] {
			asesHit += wgt
		}
		ci := CountryImpact{
			Country:     cc,
			LinksLost:   acc.links[cc],
			LinksTotal:  a.linksTotal[cc],
			IPsLost:     acc.ips[cc],
			IPsTotal:    a.ipsTotal[cc],
			ASesHit:     asesHit,
			ASesTotal:   a.asesTotal[cc],
			ASLinksLost: acc.aslinks[cc],
			ASLinksTot:  a.aslinksTotal[cc],
		}
		ci.Score = scoreOf(ci)
		rep.Countries = append(rep.Countries, ci)
	}
	sort.Slice(rep.Countries, func(i, j int) bool {
		if rep.Countries[i].Score != rep.Countries[j].Score {
			return rep.Countries[i].Score > rep.Countries[j].Score
		}
		return rep.Countries[i].Country < rep.Countries[j].Country
	})
	return rep
}
