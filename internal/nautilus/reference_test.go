package nautilus

// The reference cross-layer mapping: MapWorld and candidatesFor as
// they were before MapWorld found each router's nearest landings once,
// kept verbatim apart from their names. TestMapWorldMatchesReference
// requires the package's maps to equal theirs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"arachnet/internal/netsim"
)

func refMapWorld(w *netsim.World, cat *Catalog) (*CrossLayerMap, error) {
	if w == nil || cat == nil {
		return nil, fmt.Errorf("nautilus: nil world or catalog")
	}
	m := &CrossLayerMap{
		LinkCables: make(map[netsim.LinkID][]CableMatch),
		Assigned:   make(map[netsim.LinkID]CableID),
		CableLinks: make(map[CableID][]netsim.LinkID),
	}
	// diversity spreads the k-th parallel link between a country pair
	// onto the k-th ranked candidate (mod the top 3): submarine capacity
	// between two markets is provisioned over diverse systems.
	const diversity = 3
	seenPair := map[string]int{}
	for _, l := range w.SubmarineLinks() {
		ra, okA := w.RouterByID(l.A)
		rb, okB := w.RouterByID(l.B)
		if !okA || !okB {
			return nil, fmt.Errorf("nautilus: link %d has dangling router", l.ID)
		}
		matches := refCandidatesFor(cat, ra, rb, l.DistKm)
		if len(matches) == 0 {
			m.Unmapped = append(m.Unmapped, l.ID)
			continue
		}
		m.LinkCables[l.ID] = matches
		ca, cb := ra.Country, rb.Country
		if ca > cb {
			ca, cb = cb, ca
		}
		pair := ca + "/" + cb
		n := diversity
		if len(matches) < n {
			n = len(matches)
		}
		pick := matches[seenPair[pair]%n].Cable
		seenPair[pair]++
		m.Assigned[l.ID] = pick
		m.CableLinks[pick] = append(m.CableLinks[pick], l.ID)
	}
	for _, ids := range m.CableLinks {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	sort.Slice(m.Unmapped, func(i, j int) bool { return m.Unmapped[i] < m.Unmapped[j] })
	return m, nil
}

func refCandidatesFor(cat *Catalog, ra, rb netsim.Router, linkKm float64) []CableMatch {
	var out []CableMatch
	for _, c := range cat.Cables() {
		ia, da := nearestLanding(c, ra.Loc)
		ib, db := nearestLanding(c, rb.Loc)
		if ia < 0 || ib < 0 || ia == ib {
			continue
		}
		if da > maxShoreDistanceKm || db > maxShoreDistanceKm {
			continue
		}
		seg := c.SegmentKm(ia, ib)
		if seg <= 0 {
			continue
		}
		prox := math.Exp(-(da + db) / 1500.0)
		consistency := pathConsistency(linkKm, seg)
		conf := 0.55*prox + 0.45*consistency
		// Exact-country landings get a boost: Nautilus trusts links whose
		// endpoints geolocate to landing countries.
		if c.Landings[ia].Country == ra.Country {
			conf += 0.08
		}
		if c.Landings[ib].Country == rb.Country {
			conf += 0.08
		}
		if conf > 1 {
			conf = 1
		}
		out = append(out, CableMatch{
			Cable: c.ID, Confidence: conf,
			LandingA: c.Landings[ia], LandingB: c.Landings[ib],
			SegmentKm: seg,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Cable < out[j].Cable
	})
	if len(out) > 5 {
		out = out[:5]
	}
	return out
}

// TestMapWorldMatchesReference requires MapWorld to produce the
// reference's map over six small and two full-size worlds, floats
// compared bit for bit through their JSON encoding.
func TestMapWorldMatchesReference(t *testing.T) {
	cfgs := []netsim.Config{netsim.DefaultConfig(42), netsim.DefaultConfig(7)}
	for seed := uint64(1); seed <= 6; seed++ {
		cfgs = append(cfgs, netsim.SmallConfig(seed))
	}
	cat := BuildCatalog()
	for _, cfg := range cfgs {
		w, err := netsim.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MapWorld(w, cat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMapWorld(w, cat)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) || !reflect.DeepEqual(got, want) {
			t.Errorf("world %+v: map differs from the reference", cfg)
		}
	}
}
