package xaminer

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
)

// DisasterType classifies natural-disaster events.
type DisasterType int

// Supported disaster types.
const (
	Earthquake DisasterType = iota + 1
	Hurricane
)

// String implements fmt.Stringer.
func (t DisasterType) String() string {
	switch t {
	case Earthquake:
		return "earthquake"
	case Hurricane:
		return "hurricane"
	}
	return fmt.Sprintf("disaster(%d)", int(t))
}

// Event is one natural-disaster scenario: everything within RadiusKm of
// the epicenter is at risk.
type Event struct {
	Name      string
	Type      DisasterType
	Epicenter geo.Coord
	RadiusKm  float64
	Severity  float64 // Mw for earthquakes, Saffir-Simpson category for hurricanes
}

// SevereEarthquakes returns the built-in catalog of severe earthquake
// scenarios, modeled on historically cable-damaging events.
func SevereEarthquakes() []Event {
	return []Event{
		{Name: "tohoku-offshore", Type: Earthquake, Epicenter: geo.Coord{Lat: 38.3, Lng: 142.4}, RadiusKm: 500, Severity: 9.0},
		{Name: "hengchun-strait", Type: Earthquake, Epicenter: geo.Coord{Lat: 21.9, Lng: 120.8}, RadiusKm: 400, Severity: 7.1},
		{Name: "sumatra-andaman", Type: Earthquake, Epicenter: geo.Coord{Lat: 3.3, Lng: 95.9}, RadiusKm: 600, Severity: 9.1},
		{Name: "valparaiso-coast", Type: Earthquake, Epicenter: geo.Coord{Lat: -33.0, Lng: -72.0}, RadiusKm: 450, Severity: 8.4},
		{Name: "east-anatolia", Type: Earthquake, Epicenter: geo.Coord{Lat: 37.2, Lng: 37.0}, RadiusKm: 350, Severity: 7.8},
		{Name: "luzon-trench", Type: Earthquake, Epicenter: geo.Coord{Lat: 16.8, Lng: 120.8}, RadiusKm: 400, Severity: 7.6},
		{Name: "izmit-marmara", Type: Earthquake, Epicenter: geo.Coord{Lat: 40.8, Lng: 29.9}, RadiusKm: 300, Severity: 7.4},
	}
}

// SevereHurricanes returns the built-in catalog of severe tropical
// cyclone scenarios.
func SevereHurricanes() []Event {
	return []Event{
		{Name: "florida-landfall", Type: Hurricane, Epicenter: geo.Coord{Lat: 25.8, Lng: -80.2}, RadiusKm: 400, Severity: 5},
		{Name: "gulf-coast", Type: Hurricane, Epicenter: geo.Coord{Lat: 29.2, Lng: -90.1}, RadiusKm: 350, Severity: 4},
		{Name: "carolinas-landfall", Type: Hurricane, Epicenter: geo.Coord{Lat: 33.9, Lng: -78.0}, RadiusKm: 350, Severity: 4},
		{Name: "caribbean-arc", Type: Hurricane, Epicenter: geo.Coord{Lat: 18.4, Lng: -69.9}, RadiusKm: 450, Severity: 5},
		{Name: "luzon-typhoon", Type: Hurricane, Epicenter: geo.Coord{Lat: 14.5, Lng: 121.0}, RadiusKm: 400, Severity: 5},
		{Name: "okinawa-corridor", Type: Hurricane, Epicenter: geo.Coord{Lat: 26.0, Lng: 127.0}, RadiusKm: 450, Severity: 4},
		{Name: "pearl-river-delta", Type: Hurricane, Epicenter: geo.Coord{Lat: 22.2, Lng: 114.1}, RadiusKm: 350, Severity: 4},
		{Name: "bay-of-bengal", Type: Hurricane, Epicenter: geo.Coord{Lat: 20.5, Lng: 88.5}, RadiusKm: 500, Severity: 5},
		{Name: "mozambique-channel", Type: Hurricane, Epicenter: geo.Coord{Lat: -19.8, Lng: 34.9}, RadiusKm: 400, Severity: 4},
	}
}

// EventImpact is the outcome of processing one disaster event.
type EventImpact struct {
	Event             Event
	FailProb          float64
	RoutersAtRisk     []netsim.RouterID
	LinksAtRisk       []netsim.LinkID
	CablesAtRisk      []nautilus.CableID
	ExpectedLinksLost float64
	// Countries is the expectation-weighted country impact, sorted by
	// descending score.
	Countries []CountryImpact
}

// ProcessEvent computes the expected impact of one event under a given
// per-component failure probability (expectation mode: every at-risk
// link contributes failProb fractionally). This single function handles
// every disaster type — the versatility the paper's Case Study 2 leans
// on.
func (a *Analyzer) ProcessEvent(ev Event, failProb float64) (EventImpact, error) {
	if failProb < 0 || failProb > 1 {
		return EventImpact{}, fmt.Errorf("xaminer: failure probability %f out of [0,1]", failProb)
	}
	if ev.RadiusKm <= 0 {
		return EventImpact{}, fmt.Errorf("xaminer: event %q has non-positive radius", ev.Name)
	}
	out := EventImpact{Event: ev, FailProb: failProb}

	atRiskRouters := map[netsim.RouterID]bool{}
	cosEpicenter, bound := geo.CosLat(ev.Epicenter), geo.HaversineBound(ev.RadiusKm)
	for i, r := range a.w.Routers {
		if h := geo.Haversine(r.Loc, ev.Epicenter, a.routerCosLat[i], cosEpicenter); h >= 0 && h <= bound {
			atRiskRouters[r.ID] = true
			out.RoutersAtRisk = append(out.RoutersAtRisk, r.ID)
		}
	}
	sort.Slice(out.RoutersAtRisk, func(i, j int) bool { return out.RoutersAtRisk[i] < out.RoutersAtRisk[j] })

	// Cables whose landing points fall inside the radius: their carried
	// links are at risk even when the endpoints are far away (a cable
	// break mid-corridor kills the whole link).
	if a.cat != nil {
		out.CablesAtRisk = a.cat.LandingWithin(ev.Epicenter, ev.RadiusKm)
	}

	linkRisk := map[netsim.LinkID]bool{}
	for _, l := range a.w.IPLinks {
		if atRiskRouters[l.A] || atRiskRouters[l.B] {
			linkRisk[l.ID] = true
		}
	}
	if a.m != nil {
		for _, cid := range out.CablesAtRisk {
			for _, id := range a.m.LinksOn(cid) {
				linkRisk[id] = true
			}
		}
	}
	for id := range linkRisk {
		out.LinksAtRisk = append(out.LinksAtRisk, id)
	}
	sort.Slice(out.LinksAtRisk, func(i, j int) bool { return out.LinksAtRisk[i] < out.LinksAtRisk[j] })

	out.ExpectedLinksLost = failProb * float64(len(out.LinksAtRisk))

	acc := newAccumulator()
	for _, id := range out.LinksAtRisk {
		l, ok := a.w.LinkByID(id)
		if !ok {
			continue
		}
		acc.addLink(a.w, l, failProb)
	}
	out.Countries = acc.report(a, "event:"+ev.Name, len(out.LinksAtRisk)).Countries
	return out, nil
}

// SampleEvent runs Monte-Carlo event processing: each at-risk link
// fails independently with failProb per sample; the returned report
// averages country impact over samples and its FailedLinks field holds
// the mean number of failed links (rounded).
func (a *Analyzer) SampleEvent(ev Event, failProb float64, samples int, seed uint64) (*ImpactReport, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("xaminer: samples must be positive")
	}
	base, err := a.ProcessEvent(ev, failProb)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))
	acc := newAccumulator()
	var totalFailed int
	for s := 0; s < samples; s++ {
		for _, id := range base.LinksAtRisk {
			if rng.Float64() >= failProb {
				continue
			}
			totalFailed++
			l, ok := a.w.LinkByID(id)
			if !ok {
				continue
			}
			acc.addLink(a.w, l, 1.0/float64(samples))
		}
	}
	rep := acc.report(a, "event-mc:"+ev.Name, totalFailed/samples)
	return rep, nil
}

// GlobalImpact aggregates several event impacts into one worldwide
// view, the deliverable of the paper's Case Study 2.
type GlobalImpact struct {
	Events            []string
	ExpectedLinksLost float64
	// Countries merges per-event expectations (sums, clamped to country
	// totals), sorted by descending score.
	Countries []CountryImpact
}

// CombineEventImpacts merges per-event expectation impacts.
func CombineEventImpacts(a *Analyzer, impacts []EventImpact) GlobalImpact {
	g := GlobalImpact{}
	byCountry := map[string]CountryImpact{}
	for _, im := range impacts {
		g.Events = append(g.Events, im.Event.Name)
		g.ExpectedLinksLost += im.ExpectedLinksLost
		for _, ci := range im.Countries {
			cur := byCountry[ci.Country]
			cur.Country = ci.Country
			cur.LinksLost += ci.LinksLost
			cur.IPsLost += ci.IPsLost
			cur.ASesHit += ci.ASesHit
			cur.ASLinksLost += ci.ASLinksLost
			cur.LinksTotal = ci.LinksTotal
			cur.IPsTotal = ci.IPsTotal
			cur.ASesTotal = ci.ASesTotal
			cur.ASLinksTot = ci.ASLinksTot
			byCountry[ci.Country] = cur
		}
	}
	for _, ci := range byCountry {
		ci.Score = scoreOf(ci)
		g.Countries = append(g.Countries, ci)
	}
	sort.Slice(g.Countries, func(i, j int) bool {
		if g.Countries[i].Score != g.Countries[j].Score {
			return g.Countries[i].Score > g.Countries[j].Score
		}
		return g.Countries[i].Country < g.Countries[j].Country
	})
	sort.Strings(g.Events)
	return g
}
