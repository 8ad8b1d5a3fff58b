package traceroute

// The reference prober and campaign: Trace and RunCampaign as they were
// before the campaign traced each probe once per routing epoch, kept
// verbatim apart from their names and ComputeTable standing in for the
// table memo. TestTraceMatchesReference, TestCampaignMatchesReference
// and FuzzCampaign require the package's results to equal theirs bit
// for bit.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/netip"
	"sort"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/geo"
	"arachnet/internal/netsim"
)

type refProber struct {
	w *netsim.World
}

func (p *refProber) Trace(table *bgp.Table, failed map[netsim.LinkID]bool, src netsim.RouterID, dst netip.Addr, jitterSeed uint64) (Path, error) {
	srcR, ok := p.w.RouterByID(src)
	if !ok {
		return Path{}, fmt.Errorf("traceroute: unknown source router %d", src)
	}
	origin, ok := p.w.OriginOf(dst)
	if !ok {
		return Path{}, fmt.Errorf("traceroute: destination %v not in any prefix", dst)
	}
	out := Path{Src: src, Dst: dst}
	route, ok := table.Route(srcR.ASN, origin)
	if !ok {
		return out, nil // no route: probe times out, Reached stays false
	}

	rng := rand.New(rand.NewPCG(jitterSeed, jitterSeed^0xa24baed4963ee407))
	cur := srcR
	var oneWayMs float64
	hops := 0
	appendHop := func(r netsim.Router) {
		hops++
		rtt := 2*oneWayMs + float64(hops)*perHopOverheadMs + rng.Float64()*0.4
		out.Hops = append(out.Hops, Hop{Router: r.ID, Addr: r.Addr, ASN: r.ASN, RTTms: rtt})
	}
	appendHop(cur)

	for i := 0; i+1 < len(route.Path); i++ {
		nextAS := route.Path[i+1]
		xl, ok := p.exitLink(cur.ASN, nextAS, failed)
		if !ok {
			return out, nil // adjacency dead at IP layer
		}
		// Walk inside the current AS from cur to the link's near router.
		near, far := p.orientLink(xl, cur.ASN)
		segMs, ok := p.intraASWalk(cur, near, failed, &out, &oneWayMs, &hops, rng)
		if !ok {
			return out, nil
		}
		_ = segMs
		// Cross the inter-AS link.
		oneWayMs += geo.PropagationDelayMs(xl.DistKm)
		farR, _ := p.w.RouterByID(far)
		appendHop(farR)
		cur = farR
	}

	// Final intra-AS walk to the destination router (the origin AS's
	// router inside the destination prefix's country).
	dstR, ok := p.destRouter(dst, origin)
	if !ok {
		return out, nil
	}
	if _, ok := p.intraASWalk(cur, dstR.ID, failed, &out, &oneWayMs, &hops, rng); !ok {
		return out, nil
	}
	out.Reached = true
	if n := len(out.Hops); n > 0 {
		out.RTTms = out.Hops[n-1].RTTms
	}
	return out, nil
}

func (p *refProber) exitLink(from, to netsim.ASN, failed map[netsim.LinkID]bool) (netsim.IPLink, bool) {
	for _, l := range p.w.IPLinks {
		if l.IntraAS || failed[l.ID] {
			continue
		}
		a, b := l.ASLinkAB[0], l.ASLinkAB[1]
		if (a == from && b == to) || (a == to && b == from) {
			return l, true
		}
	}
	return netsim.IPLink{}, false
}

func (p *refProber) orientLink(l netsim.IPLink, insideAS netsim.ASN) (netsim.RouterID, netsim.RouterID) {
	if l.ASLinkAB[0] == insideAS {
		return l.A, l.B
	}
	return l.B, l.A
}

func (p *refProber) intraASWalk(cur netsim.Router, target netsim.RouterID, failed map[netsim.LinkID]bool,
	out *Path, oneWayMs *float64, hops *int, rng *rand.Rand) (float64, bool) {
	if cur.ID == target {
		return 0, true
	}
	adj := map[netsim.RouterID][]netsim.IPLink{}
	for _, l := range p.w.IPLinks {
		if !l.IntraAS || l.ASLinkAB[0] != cur.ASN || failed[l.ID] {
			continue
		}
		adj[l.A] = append(adj[l.A], l)
		adj[l.B] = append(adj[l.B], l)
	}
	type state struct {
		prev netsim.RouterID
		via  netsim.LinkID
		dist float64
		done bool
	}
	states := map[netsim.RouterID]*state{cur.ID: {dist: 0}}
	for {
		var u netsim.RouterID
		bestDist := math.Inf(1)
		for id, st := range states {
			if st.done {
				continue
			}
			if st.dist < bestDist || (st.dist == bestDist && id < u) {
				bestDist = st.dist
				u = id
			}
		}
		if math.IsInf(bestDist, 1) {
			return 0, false // target unreachable
		}
		if u == target {
			break
		}
		states[u].done = true
		links := adj[u]
		sort.Slice(links, func(i, j int) bool { return links[i].ID < links[j].ID })
		for _, l := range links {
			v := l.A
			if v == u {
				v = l.B
			}
			nd := states[u].dist + l.DistKm
			st, seen := states[v]
			if !seen {
				states[v] = &state{prev: u, via: l.ID, dist: nd}
			} else if !st.done && nd < st.dist {
				st.prev, st.via, st.dist = u, l.ID, nd
			}
		}
	}
	type hopState struct {
		r    netsim.RouterID
		prev netsim.RouterID
		via  netsim.LinkID
	}
	prev := map[netsim.RouterID]hopState{}
	for id, st := range states {
		prev[id] = hopState{r: id, prev: st.prev, via: st.via}
	}
	var chain []hopState
	for at := target; at != cur.ID; at = prev[at].prev {
		chain = append(chain, prev[at])
	}
	var segMs float64
	for i := len(chain) - 1; i >= 0; i-- {
		st := chain[i]
		l, _ := p.w.LinkByID(st.via)
		d := geo.PropagationDelayMs(l.DistKm)
		*oneWayMs += d
		segMs += d
		r, _ := p.w.RouterByID(st.r)
		*hops++
		rtt := 2*(*oneWayMs) + float64(*hops)*perHopOverheadMs + rng.Float64()*0.4
		out.Hops = append(out.Hops, Hop{Router: r.ID, Addr: r.Addr, ASN: r.ASN, RTTms: rtt})
	}
	return segMs, true
}

func (p *refProber) destRouter(dst netip.Addr, origin netsim.ASN) (netsim.Router, bool) {
	if pfx, ok := p.w.PrefixFor(dst); ok {
		for _, pr := range p.w.Prefixes {
			if pr.CIDR == pfx {
				if r, ok := p.w.RouterIn(origin, pr.Country); ok {
					return r, true
				}
			}
		}
	}
	ids := p.w.RoutersOf(origin)
	if len(ids) == 0 {
		return netsim.Router{}, false
	}
	return p.w.RouterByID(ids[0])
}

func refRunCampaign(w *netsim.World, c Campaign) (*Archive, error) {
	if len(c.Probes) == 0 {
		return nil, fmt.Errorf("traceroute: campaign has no probes")
	}
	if !c.Start.Before(c.End) || c.Interval <= 0 {
		return nil, fmt.Errorf("traceroute: invalid campaign window")
	}
	events := make([]bgp.FailureEvent, len(c.Events))
	copy(events, c.Events)
	sort.Slice(events, func(i, j int) bool { return events[i].At.Before(events[j].At) })

	prober := &refProber{w: w}
	arch := &Archive{}

	failed := map[netsim.LinkID]bool{}
	table := bgp.ComputeTable(w, failed)
	nextEvent := 0

	for at := c.Start; at.Before(c.End); at = at.Add(c.Interval) {
		for nextEvent < len(events) && !events[nextEvent].At.After(at) {
			for _, id := range events[nextEvent].Links {
				failed[id] = true
			}
			table = bgp.ComputeTable(w, failed)
			nextEvent++
		}
		for _, pr := range c.Probes {
			seed := c.Seed ^ refHashProbe(pr.Name, at)
			path, err := prober.Trace(table, failed, pr.Src, pr.Dst, seed)
			if err != nil {
				return nil, fmt.Errorf("traceroute: probe %s: %w", pr.Name, err)
			}
			m := Measurement{Probe: pr.Name, Time: at, RTTms: path.RTTms, Reached: path.Reached}
			for _, h := range path.Hops {
				if len(m.HopASNs) == 0 || m.HopASNs[len(m.HopASNs)-1] != h.ASN {
					m.HopASNs = append(m.HopASNs, h.ASN)
				}
			}
			arch.Measurements = append(arch.Measurements, m)
		}
	}
	return arch, nil
}

func refHashProbe(name string, at time.Time) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	u := uint64(at.UnixNano())
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}
