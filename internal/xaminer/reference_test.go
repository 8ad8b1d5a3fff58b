package xaminer

// The reference event processing: ProcessEvent as it was before its
// radius tests read latitude cosines computed once and the catalog
// found the cables landing within the radius, kept verbatim apart from
// its name.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
)

func refProcessEvent(a *Analyzer, ev Event, failProb float64) (EventImpact, error) {
	if failProb < 0 || failProb > 1 {
		return EventImpact{}, fmt.Errorf("xaminer: failure probability %f out of [0,1]", failProb)
	}
	if ev.RadiusKm <= 0 {
		return EventImpact{}, fmt.Errorf("xaminer: event %q has non-positive radius", ev.Name)
	}
	out := EventImpact{Event: ev, FailProb: failProb}

	atRiskRouters := map[netsim.RouterID]bool{}
	for _, r := range a.w.Routers {
		if geo.DistanceKm(r.Loc, ev.Epicenter) <= ev.RadiusKm {
			atRiskRouters[r.ID] = true
			out.RoutersAtRisk = append(out.RoutersAtRisk, r.ID)
		}
	}
	sort.Slice(out.RoutersAtRisk, func(i, j int) bool { return out.RoutersAtRisk[i] < out.RoutersAtRisk[j] })

	// Cables whose landing points fall inside the radius: their carried
	// links are at risk even when the endpoints are far away (a cable
	// break mid-corridor kills the whole link).
	cableRisk := map[nautilus.CableID]bool{}
	if a.cat != nil {
		for _, c := range a.cat.Cables() {
			for _, lpt := range c.Landings {
				if geo.DistanceKm(lpt.Loc, ev.Epicenter) <= ev.RadiusKm {
					cableRisk[c.ID] = true
					break
				}
			}
		}
	}
	for id := range cableRisk {
		out.CablesAtRisk = append(out.CablesAtRisk, id)
	}
	sort.Slice(out.CablesAtRisk, func(i, j int) bool { return out.CablesAtRisk[i] < out.CablesAtRisk[j] })

	linkRisk := map[netsim.LinkID]bool{}
	for _, l := range a.w.IPLinks {
		if atRiskRouters[l.A] || atRiskRouters[l.B] {
			linkRisk[l.ID] = true
		}
	}
	if a.m != nil {
		for cid := range cableRisk {
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

// TestProcessEventMatchesReference requires ProcessEvent to select the
// reference's at-risk routers, cables and links, and so to report its
// impact, for every built-in disaster and random events (some of which
// reach nothing), over two small worlds and, unless the run is -short,
// a full-size one, with and without a catalog and cross-layer map.
func TestProcessEventMatchesReference(t *testing.T) {
	events := append(SevereEarthquakes(), SevereHurricanes()...)
	rng := rand.New(rand.NewPCG(13, 14))
	for i := range 40 {
		events = append(events, Event{
			Name:      fmt.Sprintf("random-%d", i),
			Type:      Earthquake,
			Epicenter: geo.Coord{Lat: rng.Float64()*180 - 90, Lng: rng.Float64()*360 - 180},
			RadiusKm:  float64(rng.IntN(3000) + 1),
		})
	}
	cfgs := []netsim.Config{netsim.SmallConfig(7), netsim.SmallConfig(42)}
	if !testing.Short() {
		cfgs = append(cfgs, netsim.DefaultConfig(42))
	}
	cat := nautilus.BuildCatalog()
	for _, cfg := range cfgs {
		w, err := netsim.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := nautilus.MapWorld(w, cat)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewAnalyzer(w, cat, m)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := NewAnalyzer(w, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*Analyzer{full, bare} {
			for _, ev := range events {
				for _, p := range []float64{0.1, 0.5} {
					got, err := a.ProcessEvent(ev, p)
					want, refErr := refProcessEvent(a, ev, p)
					if err != nil || refErr != nil {
						t.Fatalf("%s: %v, reference %v", ev.Name, err, refErr)
					}
					gb, _ := json.Marshal(got)
					wb, _ := json.Marshal(want)
					if !reflect.DeepEqual(got, want) || string(gb) != string(wb) {
						t.Fatalf("world %+v, %s at %v: impact differs from the reference\n got %s\nwant %s", cfg, ev.Name, p, gb, wb)
					}
				}
			}
		}
	}
}
