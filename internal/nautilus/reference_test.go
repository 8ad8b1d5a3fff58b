package nautilus

// The reference cross-layer mapping: MapWorld, candidatesFor and
// nearestLanding as they were before MapWorld found each router's
// nearest landings once, kept verbatim apart from their names.
// TestMapWorldMatchesReference requires the package's maps to equal
// theirs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"arachnet/internal/geo"
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
		ia, da := refNearestLanding(c, ra.Loc)
		ib, db := refNearestLanding(c, rb.Loc)
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

func refNearestLanding(c Cable, loc geo.Coord) (int, float64) {
	best, bestD := -1, math.MaxFloat64
	for i, lpt := range c.Landings {
		d := geo.DistanceKm(lpt.Loc, loc)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
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

// refBetween is Between as it was before BuildCatalog derived each
// cable's regions once, kept verbatim apart from its name.
func refBetween(cat *Catalog, a, b geo.Region) []Cable {
	var out []Cable
	for _, c := range cat.cables {
		hasA, hasB := false, false
		for _, r := range c.Regions() {
			if r == a {
				hasA = true
			}
			if r == b {
				hasB = true
			}
		}
		if hasA && hasB {
			out = append(out, c)
		}
	}
	return out
}

// TestCatalogDerivationsMatchReference requires what BuildCatalog
// derives once to answer as the per-call derivations did: Between for
// every pair of regions, a region with itself and names that are no
// region; LandingIn, built from Cable.Countries before, for every
// country; each cable's regions; and every along-cable segment length,
// bit for bit.
func TestCatalogDerivationsMatchReference(t *testing.T) {
	cat := BuildCatalog()
	regions := append(geo.AllRegions(), "Atlantis", "")
	for _, a := range regions {
		for _, b := range regions {
			if got, want := cat.Between(a, b), refBetween(cat, a, b); !reflect.DeepEqual(got, want) {
				t.Errorf("Between(%q, %q) differs from the reference", a, b)
			}
		}
	}
	for _, country := range geo.Countries() {
		var want []CableID
		for _, c := range cat.cables {
			for _, cc := range c.Countries() {
				if cc == country.Code {
					want = append(want, c.ID)
				}
			}
		}
		if got := cat.LandingIn(country.Code); !slices.Equal(got, want) {
			t.Errorf("LandingIn(%s) = %v, want %v", country.Code, got, want)
		}
	}
	for i, c := range cat.cables {
		var want geo.RegionSet
		for _, r := range c.Regions() {
			want = want.With(r)
		}
		if got := cat.Regions(c.ID); got != want || got.Len() != len(c.Regions()) {
			t.Errorf("%s: regions %07b, Cable.Regions %v", c.ID, got, c.Regions())
		}
		for a := range c.Landings {
			for b := range c.Landings {
				if got, want := cat.geom[i].segmentKm(a, b), c.SegmentKm(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: segment %d-%d is %v km, Cable.SegmentKm %v", c.ID, a, b, got, want)
				}
			}
		}
	}
}
