package core

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
	"arachnet/internal/registry"
	"arachnet/internal/xaminer"
)

// BuiltinRegistry builds the full hand-curated capability catalog over
// every substrate. Each entry describes what the tool does in registry
// terms; implementations close over nothing and fetch the Environment
// from the call, so one registry serves any environment.
func BuiltinRegistry() *registry.Registry {
	r := registry.New()
	registerNautilus(r)
	registerGeo(r)
	registerReport(r)
	registerXaminer(r)
	registerBGP(r)
	registerTraceroute(r)
	registerTopo(r)
	registerForensic(r)
	return r
}

// CS1RegistryNames returns the capability subset used by the paper's
// Case Study 1 setup: "only core Nautilus system functions", plus the
// generic geo/report utilities — Xaminer's higher-level abstractions
// are withheld.
func CS1RegistryNames() []string {
	return []string{
		"nautilus.resolve_cable",
		"nautilus.cable_to_set",
		"nautilus.cables_between_regions",
		"nautilus.links_on_cables",
		"nautilus.extract_ips",
		"nautilus.map_coverage",
		"geo.locate_ips",
		"report.country_rollup",
		"report.render",
	}
}

func inputString(c *registry.Call, name string) (string, error) {
	v, err := c.Input(name)
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("core: input %q is %T, want string", name, v)
	}
	return s, nil
}

func inputFloat(c *registry.Call, name string) (float64, error) {
	v, err := c.Input(name)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case int:
		return float64(x), nil
	}
	return 0, fmt.Errorf("core: input %q is %T, want float64", name, v)
}

func inputLinks(c *registry.Call, name string) ([]netsim.LinkID, error) {
	v, err := c.Input(name)
	if err != nil {
		return nil, err
	}
	ls, ok := v.([]netsim.LinkID)
	if !ok {
		return nil, fmt.Errorf("core: input %q is %T, want []netsim.LinkID", name, v)
	}
	return ls, nil
}

func linkSet(ids []netsim.LinkID) map[netsim.LinkID]bool {
	m := make(map[netsim.LinkID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func registerNautilus(r *registry.Registry) {
	r.MustRegister(registry.Capability{
		Name: "nautilus.resolve_cable", Framework: "nautilus",
		Description: "Resolve a submarine cable by name or ID against the cable catalog",
		Inputs:      []registry.Port{{Name: "name", Type: registry.TString, Desc: "cable name, e.g. SeaMeWe-5"}},
		Outputs:     []registry.Port{{Name: "cable", Type: registry.TCableID}},
		Constraints: []string{"cable must exist in the catalog"},
		Tags:        []string{"cable-resolution"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			name, err := inputString(c, "name")
			if err != nil {
				return err
			}
			cab, ok := e.Catalog.ByName(name)
			if !ok {
				return fmt.Errorf("core: unknown cable %q", name)
			}
			c.Out["cable"] = cab.ID
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "nautilus.cable_to_set", Framework: "nautilus",
		Description: "Wrap a single cable into a cable set (format adapter)",
		Inputs:      []registry.Port{{Name: "cable", Type: registry.TCableID}},
		Outputs:     []registry.Port{{Name: "cables", Type: registry.TCableList}},
		Tags:        []string{"adapter"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			v, err := c.Input("cable")
			if err != nil {
				return err
			}
			id, ok := v.(nautilus.CableID)
			if !ok {
				return fmt.Errorf("core: cable input is %T", v)
			}
			c.Out["cables"] = []nautilus.CableID{id}
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "nautilus.cables_between_regions", Framework: "nautilus",
		Description: "List the submarine cables landing in both of two regions (a corridor)",
		Inputs: []registry.Port{
			{Name: "region_a", Type: registry.TString},
			{Name: "region_b", Type: registry.TString},
		},
		Outputs:     []registry.Port{{Name: "cables", Type: registry.TCableList}},
		Constraints: []string{"regions must be recognized region names"},
		Tags:        []string{"corridor", "cable-resolution"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			a, err := inputString(c, "region_a")
			if err != nil {
				return err
			}
			b, err := inputString(c, "region_b")
			if err != nil {
				return err
			}
			ra, okA := geo.ParseRegion(a)
			rb, okB := geo.ParseRegion(b)
			if !okA || !okB {
				return fmt.Errorf("core: unknown region pair (%q, %q)", a, b)
			}
			var ids []nautilus.CableID
			for _, cab := range e.Catalog.Between(ra, rb) {
				ids = append(ids, cab.ID)
			}
			c.Out["cables"] = ids
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "nautilus.links_on_cables", Framework: "nautilus",
		Description: "Extract the IP links riding a set of cables from the cross-layer map (cable dependency identification)",
		Inputs:      []registry.Port{{Name: "cables", Type: registry.TCableList}},
		Outputs:     []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Constraints: []string{"requires a computed cross-layer map"},
		Tags:        []string{"link-extraction", "cable-dependency"},
		Cost:        2,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			v, err := c.Input("cables")
			if err != nil {
				return err
			}
			ids, ok := v.([]nautilus.CableID)
			if !ok {
				return fmt.Errorf("core: cables input is %T", v)
			}
			set := map[netsim.LinkID]bool{}
			for _, id := range ids {
				for _, l := range e.CrossMap.LinksOn(id) {
					set[l] = true
				}
			}
			out := make([]netsim.LinkID, 0, len(set))
			for id := range set {
				out = append(out, id)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			c.Out["links"] = out
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "nautilus.extract_ips", Framework: "nautilus",
		Description: "Extract the interface IP addresses terminating a set of IP links",
		Inputs:      []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Outputs:     []registry.Port{{Name: "ips", Type: registry.TIPSet}},
		Tags:        []string{"ip-extraction"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			links, err := inputLinks(c, "links")
			if err != nil {
				return err
			}
			set := map[netip.Addr]bool{}
			for _, id := range links {
				l, ok := e.World.LinkByID(id)
				if !ok {
					continue
				}
				set[l.SrcAddr] = true
				set[l.DstAddr] = true
			}
			out := make([]netip.Addr, 0, len(set))
			for a := range set {
				out = append(out, a)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
			c.Out["ips"] = out
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "nautilus.map_coverage", Framework: "nautilus",
		Description: "Report the fraction of submarine links covered by the cross-layer map (mapping uncertainty)",
		Outputs:     []registry.Port{{Name: "coverage", Type: registry.TFloat}},
		Tags:        []string{"validation", "uncertainty"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			c.Out["coverage"] = e.CrossMap.Coverage(e.World)
			return nil
		},
	})
}

func registerGeo(r *registry.Registry) {
	r.MustRegister(registry.Capability{
		Name: "geo.locate_ips", Framework: "geo",
		Description: "Geolocate IP addresses to countries using the allocation database",
		Inputs:      []registry.Port{{Name: "ips", Type: registry.TIPSet}},
		Outputs:     []registry.Port{{Name: "geo", Type: registry.TGeoTable}},
		Tags:        []string{"geo-mapping"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			v, err := c.Input("ips")
			if err != nil {
				return err
			}
			ips, ok := v.([]netip.Addr)
			if !ok {
				return fmt.Errorf("core: ips input is %T", v)
			}
			rows := make([]GeoRow, 0, len(ips))
			for _, ip := range ips {
				if cc, ok := e.World.Locate(ip); ok {
					rows = append(rows, GeoRow{Addr: ip, Country: cc})
				}
			}
			c.Out["geo"] = rows
			return nil
		},
	})
}

func registerReport(r *registry.Registry) {
	r.MustRegister(registry.Capability{
		Name: "report.country_rollup", Framework: "report",
		Description: "Aggregate geolocated losses into a per-country impact table with normalized scores",
		Inputs: []registry.Port{
			{Name: "geo", Type: registry.TGeoTable},
			{Name: "links", Type: registry.TLinkSet},
		},
		Outputs: []registry.Port{{Name: "report", Type: registry.TImpact}},
		Tags:    []string{"aggregation", "country-level"},
		Cost:    2,
		Pure:    true,
		Reads:   []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			v, err := c.Input("geo")
			if err != nil {
				return err
			}
			rows, ok := v.([]GeoRow)
			if !ok {
				return fmt.Errorf("core: geo input is %T", v)
			}
			links, err := inputLinks(c, "links")
			if err != nil {
				return err
			}
			c.Out["report"] = directCountryRollup(e.Environment, rows, links)
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "report.render", Framework: "report",
		Description: "Render an impact report as a readable table",
		Inputs:      []registry.Port{{Name: "report", Type: registry.TImpact}},
		Outputs:     []registry.Port{{Name: "text", Type: registry.TString}},
		Tags:        []string{"render"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			v, err := c.Input("report")
			if err != nil {
				return err
			}
			rep, ok := v.(*xaminer.ImpactReport)
			if !ok {
				return fmt.Errorf("core: report input is %T", v)
			}
			c.Out["text"] = RenderImpact(rep, 15)
			return nil
		},
	})
}

// directCountryRollup is the "direct processing pipeline" aggregation an
// agent composes when Xaminer's embedding module is withheld: counts
// per-country losses from raw rows and normalizes against world totals.
// It intentionally re-derives totals rather than calling into Xaminer.
func directCountryRollup(e *Environment, rows []GeoRow, links []netsim.LinkID) *xaminer.ImpactReport {
	ipsTotal := map[string]int{}
	for _, r := range e.World.Routers {
		ipsTotal[r.Country]++
	}
	linksTotal := map[string]int{}
	asLinksTotal := map[string]int{}
	for _, l := range e.World.IPLinks {
		ca, cb := e.World.LinkEndpoints(l)
		linksTotal[ca]++
		if cb != ca {
			linksTotal[cb]++
		}
		if !l.IntraAS {
			asLinksTotal[ca]++
			if cb != ca {
				asLinksTotal[cb]++
			}
		}
	}
	asesTotal := map[string]int{}
	for _, as := range e.World.ASes {
		for _, cc := range as.Presence {
			asesTotal[cc]++
		}
	}

	ipsLost := map[string]float64{}
	for _, row := range rows {
		ipsLost[row.Country]++
	}
	linksLost := map[string]float64{}
	asLinksLost := map[string]float64{}
	asesHit := map[string]map[netsim.ASN]bool{}
	for _, id := range links {
		l, ok := e.World.LinkByID(id)
		if !ok {
			continue
		}
		ca, cb := e.World.LinkEndpoints(l)
		linksLost[ca]++
		if cb != ca {
			linksLost[cb]++
		}
		if !l.IntraAS {
			asLinksLost[ca]++
			if cb != ca {
				asLinksLost[cb]++
			}
		}
		if asesHit[ca] == nil {
			asesHit[ca] = map[netsim.ASN]bool{}
		}
		if asesHit[cb] == nil {
			asesHit[cb] = map[netsim.ASN]bool{}
		}
		asesHit[ca][l.ASLinkAB[0]] = true
		asesHit[cb][l.ASLinkAB[1]] = true
	}

	countries := map[string]bool{}
	for cc := range ipsLost {
		countries[cc] = true
	}
	for cc := range linksLost {
		countries[cc] = true
	}
	rep := &xaminer.ImpactReport{Scenario: "direct-rollup", FailedLinks: len(links)}
	for cc := range countries {
		ci := xaminer.CountryImpact{
			Country:     cc,
			IPsLost:     ipsLost[cc],
			IPsTotal:    ipsTotal[cc],
			LinksLost:   linksLost[cc],
			LinksTotal:  linksTotal[cc],
			ASesHit:     float64(len(asesHit[cc])),
			ASesTotal:   asesTotal[cc],
			ASLinksLost: asLinksLost[cc],
			ASLinksTot:  asLinksTotal[cc],
		}
		var sum float64
		var n int
		frac := func(lost float64, total int) {
			if total > 0 {
				f := lost / float64(total)
				if f > 1 {
					f = 1
				}
				sum += f
				n++
			}
		}
		frac(ci.LinksLost, ci.LinksTotal)
		frac(ci.IPsLost, ci.IPsTotal)
		frac(ci.ASesHit, ci.ASesTotal)
		frac(ci.ASLinksLost, ci.ASLinksTot)
		if n > 0 {
			ci.Score = sum / float64(n)
		}
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

// RenderImpact formats an impact report as a fixed-width table with the
// top n countries.
func RenderImpact(rep *xaminer.ImpactReport, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d links failed, %d countries impacted\n",
		rep.Scenario, rep.FailedLinks, len(rep.Countries))
	if rep.ReachabilityLossPct > 0 {
		fmt.Fprintf(&b, "AS-pair reachability loss: %.2f%%\n", rep.ReachabilityLossPct)
	}
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %8s\n", "country", "score", "links", "ips", "ases", "aslinks")
	for i, ci := range rep.Countries {
		if i >= n {
			break
		}
		fmt.Fprintf(&b, "%-8s %8.3f %8.1f %8.1f %8.1f %8.1f\n",
			ci.Country, ci.Score, ci.LinksLost, ci.IPsLost, ci.ASesHit, ci.ASLinksLost)
	}
	return b.String()
}

func registerXaminer(r *registry.Registry) {
	r.MustRegister(registry.Capability{
		Name: "xaminer.impact_from_links", Framework: "xaminer",
		Description: "Xaminer embedding: cross-layer country impact (IPs, links, ASes, AS links, normalized) for failed links",
		Inputs:      []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Outputs:     []registry.Port{{Name: "report", Type: registry.TImpact}},
		Tags:        []string{"impact-analysis", "embedding", "aggregation", "country-level"},
		Cost:        3,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			links, err := inputLinks(c, "links")
			if err != nil {
				return err
			}
			c.Out["report"] = e.Analyzer.AnalyzeLinkFailures("xaminer", linkSet(links), false)
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "xaminer.reachability_loss", Framework: "xaminer",
		Description: "Compute AS-pair reachability loss under a link-failure scenario via BGP recomputation",
		Inputs:      []registry.Port{{Name: "links", Type: registry.TLinkSet}},
		Outputs:     []registry.Port{{Name: "loss_pct", Type: registry.TFloat}},
		Constraints: []string{"recomputes global routing tables; expensive on large worlds"},
		Tags:        []string{"routing-impact", "validation"},
		Cost:        6,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			links, err := inputLinks(c, "links")
			if err != nil {
				return err
			}
			rep := e.Analyzer.AnalyzeLinkFailures("reach", linkSet(links), true)
			c.Out["loss_pct"] = rep.ReachabilityLossPct
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "xaminer.event_catalog", Framework: "xaminer",
		Description: "Select severe disaster events (earthquake, hurricane) from the built-in event catalogs",
		Inputs:      []registry.Port{{Name: "types", Type: registry.TStringList}},
		Outputs:     []registry.Port{{Name: "events", Type: registry.TEventList}},
		Tags:        []string{"event-selection"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			v, err := c.Input("types")
			if err != nil {
				return err
			}
			types, ok := v.([]string)
			if !ok {
				return fmt.Errorf("core: types input is %T", v)
			}
			var events []xaminer.Event
			for _, t := range types {
				switch strings.ToLower(t) {
				case "earthquake":
					events = append(events, xaminer.SevereEarthquakes()...)
				case "hurricane", "typhoon", "cyclone":
					events = append(events, xaminer.SevereHurricanes()...)
				default:
					return fmt.Errorf("core: unknown disaster type %q", t)
				}
			}
			c.Out["events"] = events
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "xaminer.process_events", Framework: "xaminer",
		Description: "Process disaster events with a failure probability: at-risk infrastructure and expected country impact per event (handles every disaster type)",
		Inputs: []registry.Port{
			{Name: "events", Type: registry.TEventList},
			{Name: "fail_prob", Type: registry.TFloat},
		},
		Outputs:     []registry.Port{{Name: "impacts", Type: registry.TEventImpact}},
		Constraints: []string{"probability must lie in [0,1]"},
		Tags:        []string{"event-processing", "impact-analysis"},
		Cost:        3,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			v, err := c.Input("events")
			if err != nil {
				return err
			}
			events, ok := v.([]xaminer.Event)
			if !ok {
				return fmt.Errorf("core: events input is %T", v)
			}
			prob, err := inputFloat(c, "fail_prob")
			if err != nil {
				return err
			}
			impacts := make([]xaminer.EventImpact, 0, len(events))
			for _, ev := range events {
				im, err := e.Analyzer.ProcessEvent(ev, prob)
				if err != nil {
					return fmt.Errorf("core: event %q: %w", ev.Name, err)
				}
				impacts = append(impacts, im)
			}
			c.Out["impacts"] = impacts
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "xaminer.combine_impacts", Framework: "xaminer",
		Description: "Combine per-event expectation impacts into one global country-impact view",
		Inputs:      []registry.Port{{Name: "impacts", Type: registry.TEventImpact}},
		Outputs:     []registry.Port{{Name: "global", Type: registry.TGlobal}},
		Tags:        []string{"aggregation", "combine"},
		Cost:        1,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			v, err := c.Input("impacts")
			if err != nil {
				return err
			}
			impacts, ok := v.([]xaminer.EventImpact)
			if !ok {
				return fmt.Errorf("core: impacts input is %T", v)
			}
			c.Out["global"] = xaminer.CombineEventImpacts(e.Analyzer, impacts)
			return nil
		},
	})
}
