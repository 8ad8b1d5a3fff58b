package nautilus

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"arachnet/internal/geo"
	"arachnet/internal/netsim"
)

// CableMatch is one candidate cable for an IP link, with the landing
// points the link is inferred to use and a confidence in [0,1].
type CableMatch struct {
	Cable      CableID
	Confidence float64
	LandingA   LandingPoint // shore end near the link's A router
	LandingB   LandingPoint // shore end near the link's B router
	SegmentKm  float64      // along-cable distance between the two landings
}

// CrossLayerMap is the Nautilus output artifact: every submarine IP link
// annotated with ranked candidate cables, an assignment of each link to
// the cable it rides, plus the inverse index from cable to carried
// links.
type CrossLayerMap struct {
	// LinkCables maps link ID to candidates sorted by descending
	// confidence. Only submarine links appear.
	LinkCables map[netsim.LinkID][]CableMatch
	// Assigned maps each link to the cable it is inferred to ride.
	// Parallel links between the same country pair are spread across
	// the top candidates (operators provision diverse systems), so the
	// assignment is not always the top-confidence candidate.
	Assigned map[netsim.LinkID]CableID
	// CableLinks maps cable ID to the links assigned to it.
	CableLinks map[CableID][]netsim.LinkID
	// Unmapped lists submarine links with no plausible cable.
	Unmapped []netsim.LinkID
}

// maxShoreDistanceKm bounds how far a router may sit from a landing
// point for the cable to be considered a candidate.
const maxShoreDistanceKm = 1200

// MapWorld runs the cross-layer mapping over every submarine link of a
// world. It is deterministic and side-effect free.
func MapWorld(w *netsim.World, cat *Catalog) (*CrossLayerMap, error) {
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
	seenPair := map[[2]string]int{}
	// landings holds each router's nearest landing on every cable,
	// found the first time the router ends a submarine link.
	landings := map[netsim.RouterID][]nearLanding{}
	nearest := func(r netsim.Router) []nearLanding {
		ls, ok := landings[r.ID]
		if !ok {
			ls = make([]nearLanding, len(cat.cables))
			cosR := geo.CosLat(r.Loc)
			for i := range cat.cables {
				ls[i] = nearestLanding(&cat.cables[i], &cat.geom[i], r.Loc, cosR)
			}
			landings[r.ID] = ls
		}
		return ls
	}
	var scratch []CableMatch
	for _, l := range w.SubmarineLinks() {
		ra, okA := w.RouterByID(l.A)
		rb, okB := w.RouterByID(l.B)
		if !okA || !okB {
			return nil, fmt.Errorf("nautilus: link %d has dangling router", l.ID)
		}
		scratch = candidatesFor(scratch[:0], cat, nearest(ra), nearest(rb), ra, rb, l.DistKm)
		if len(scratch) == 0 {
			m.Unmapped = append(m.Unmapped, l.ID)
			continue
		}
		matches := slices.Clone(scratch)
		m.LinkCables[l.ID] = matches
		ca, cb := ra.Country, rb.Country
		if ca > cb {
			ca, cb = cb, ca
		}
		pair := [2]string{ca, cb}
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

// nearLanding is a router's nearest landing on one cable: its index
// in the cable's landings and its distance from the router.
type nearLanding struct {
	idx int
	km  float64
}

// candidatesFor appends to out the top candidates among the catalog's
// cables for one link, given each end router's nearest landing on
// every cable, best first. The score combines shore proximity (how
// close each router is to a landing point) with path consistency (how
// well the along-cable distance explains the link's fiber length),
// mirroring Nautilus's geographic + latency validation stages.
func candidatesFor(out []CableMatch, cat *Catalog, nearA, nearB []nearLanding, ra, rb netsim.Router, linkKm float64) []CableMatch {
	for i := range cat.cables {
		c := &cat.cables[i]
		ia, da := nearA[i].idx, nearA[i].km
		ib, db := nearB[i].idx, nearB[i].km
		if ia < 0 || ib < 0 || ia == ib {
			continue
		}
		if da > maxShoreDistanceKm || db > maxShoreDistanceKm {
			continue
		}
		seg := cat.geom[i].segmentKm(ia, ib)
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
	slices.SortFunc(out, func(a, b CableMatch) int {
		if c := cmp.Compare(b.Confidence, a.Confidence); c != 0 {
			return c
		}
		return cmp.Compare(a.Cable, b.Cable)
	})
	if len(out) > 5 {
		out = out[:5]
	}
	return out
}

// nearestLanding returns the first of c's landings nearest to loc,
// whose latitude's cosine is cosLoc, and its distance. A landing whose
// haversine exceeds the best one's cannot be nearer, so only the others
// pay for the arcsine that turns a haversine into kilometers; they are
// compared in kilometers, as DistanceKm would, so the winner and its
// distance are DistanceKm's.
func nearestLanding(c *Cable, g *cableGeom, loc geo.Coord, cosLoc float64) nearLanding {
	best := nearLanding{idx: -1, km: math.MaxFloat64}
	bestH := math.Inf(1)
	for i := range c.Landings {
		h := geo.Haversine(c.Landings[i].Loc, loc, g.cosLat[i], cosLoc)
		if h > bestH {
			continue
		}
		if d := geo.ArcKm(h); d < best.km {
			best, bestH = nearLanding{i, d}, h
		}
	}
	return best
}

// pathConsistency compares the IP link's fiber distance with the
// along-cable segment distance; 1 means a perfect explanation.
func pathConsistency(linkKm, segKm float64) float64 {
	if linkKm <= 0 || segKm <= 0 {
		return 0
	}
	r := linkKm / segKm
	if r > 1 {
		r = 1 / r
	}
	return r
}

// BestCable returns the assigned cable's match for a link.
func (m *CrossLayerMap) BestCable(id netsim.LinkID) (CableMatch, bool) {
	ms := m.LinkCables[id]
	if len(ms) == 0 {
		return CableMatch{}, false
	}
	assigned := m.Assigned[id]
	for _, cm := range ms {
		if cm.Cable == assigned {
			return cm, true
		}
	}
	return ms[0], true
}

// LinksOn returns the links assigned to a cable.
func (m *CrossLayerMap) LinksOn(c CableID) []netsim.LinkID {
	ids := m.CableLinks[c]
	out := make([]netsim.LinkID, len(ids))
	copy(out, ids)
	return out
}

// MappedLinks returns all mapped link IDs in ascending order.
func (m *CrossLayerMap) MappedLinks() []netsim.LinkID {
	out := make([]netsim.LinkID, 0, len(m.LinkCables))
	for id := range m.LinkCables {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Coverage returns the fraction of submarine links that were mapped.
// It counts the world's submarine links in place: it runs on every plan
// miss, through the environment's data summary.
func (m *CrossLayerMap) Coverage(w *netsim.World) float64 {
	total := 0
	for i := range w.IPLinks {
		if w.IPLinks[i].Kind == netsim.LinkSubmarine {
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(len(m.LinkCables)) / float64(total)
}

// SolViolation describes a mapping that fails the speed-of-light check:
// the claimed cable segment could not produce an RTT as low as the
// link's fiber distance implies.
type SolViolation struct {
	Link    netsim.LinkID
	Cable   CableID
	LinkMs  float64 // one-way delay implied by link fiber length
	CableMs float64 // one-way delay over the claimed segment
}

// ValidateSoL runs Nautilus's speed-of-light validation over the best
// candidate of every mapped link: the link's implied one-way delay must
// not be dramatically lower than the cable segment's. Tolerance is the
// allowed ratio slack (e.g. 0.5 accepts links down to half the segment
// delay, absorbing routing-stretch estimation error).
func (m *CrossLayerMap) ValidateSoL(w *netsim.World, tolerance float64) []SolViolation {
	var out []SolViolation
	for _, id := range m.MappedLinks() {
		best := m.LinkCables[id][0]
		l, ok := w.LinkByID(id)
		if !ok {
			continue
		}
		linkMs := geo.PropagationDelayMs(l.DistKm)
		cableMs := geo.PropagationDelayMs(best.SegmentKm)
		if linkMs < cableMs*tolerance {
			out = append(out, SolViolation{Link: id, Cable: best.Cable, LinkMs: linkMs, CableMs: cableMs})
		}
	}
	return out
}
