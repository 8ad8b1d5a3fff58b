// Package traceroute implements the active-measurement substrate: a
// prober that traces router-level paths through the simulated Internet
// and times them with a geography-derived RTT model, plus measurement
// campaigns that produce latency time series across failure events.
//
// It stands in for RIPE-Atlas-style probe archives. The essential
// behaviour the forensic workflows need is causal: when a cable failure
// kills IP links, BGP re-routes, paths lengthen, and the probe series
// shows a latency level shift at the failure time.
package traceroute

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sort"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/geo"
	"arachnet/internal/netsim"
)

// Hop is one responding router on a traced path.
type Hop struct {
	Router netsim.RouterID
	Addr   netip.Addr
	ASN    netsim.ASN
	RTTms  float64 // cumulative round-trip time at this hop
}

// Path is the result of one trace.
type Path struct {
	Src     netsim.RouterID
	Dst     netip.Addr
	Hops    []Hop
	Reached bool
	RTTms   float64 // end-to-end RTT; meaningful only when Reached
}

// perHopOverheadMs models queueing/processing per traversed router.
const perHopOverheadMs = 0.15

// Prober traces paths through a world. It indexes the world's IP
// links once, so a hop reads only the links it can use: each router's
// intra-AS links in link-ID order, the order the walk inside an AS
// expands them in, and the inter-AS links joining each pair of ASes in
// IP-link order, the order the exit choice prefers.
type Prober struct {
	w *netsim.World
	// links holds positions in w.IPLinks, one group per router and one
	// per AS pair; intra and exits locate the groups.
	links []int32
	intra map[netsim.RouterID]span
	exits map[[2]netsim.ASN]span
}

// span is one group of Prober.links.
type span struct{ lo, hi int32 }

// asPair keys the inter-AS links joining a and b, in either direction.
func asPair(a, b netsim.ASN) [2]netsim.ASN {
	if a > b {
		a, b = b, a
	}
	return [2]netsim.ASN{a, b}
}

// NewProber returns a Prober over the given world.
func NewProber(w *netsim.World) *Prober {
	p := &Prober{w: w, intra: map[netsim.RouterID]span{}, exits: map[[2]netsim.ASN]span{}}
	// Two passes over the links: the first counts each group; the
	// second, once the groups are laid out in one slice, fills them in
	// IP-link order.
	grow := func(sp span, i int) span {
		if p.links != nil { // second pass
			p.links[sp.hi] = int32(i)
		}
		sp.hi++
		return sp
	}
	fill := func() {
		for i, l := range w.IPLinks {
			if l.IntraAS {
				p.intra[l.A] = grow(p.intra[l.A], i)
				p.intra[l.B] = grow(p.intra[l.B], i)
			} else {
				k := asPair(l.ASLinkAB[0], l.ASLinkAB[1])
				p.exits[k] = grow(p.exits[k], i)
			}
		}
	}
	fill()
	var n int32
	for r, sp := range p.intra {
		p.intra[r] = span{n, n}
		n += sp.hi
	}
	for k, sp := range p.exits {
		p.exits[k] = span{n, n}
		n += sp.hi
	}
	p.links = make([]int32, n)
	fill()
	for _, sp := range p.intra {
		slices.SortFunc(p.group(sp), func(a, b int32) int { return cmp.Compare(w.IPLinks[a].ID, w.IPLinks[b].ID) })
	}
	return p
}

// group returns the IP-link positions of one group.
func (p *Prober) group(sp span) []int32 { return p.links[sp.lo:sp.hi] }

// jitterKey mixes a trace's jitter seed into the second word of its
// PCG state.
const jitterKey = 0xa24baed4963ee407

// hopRTT is the round-trip time reported at the n-th hop (counting
// from 1) of a path whose one-way propagation delay to that hop is
// oneWayMs, given the hop's jitter draw u in [0, 1). Trace and
// RunCampaign both time hops through it; the explicit conversions
// round each product, so no fused multiply-add can make them differ.
func hopRTT(oneWayMs float64, n int, u float64) float64 {
	return float64(2*oneWayMs) + float64(float64(n)*perHopOverheadMs) + float64(u*0.4)
}

// route is a traced path before it is timed: the hops Trace reports,
// with RTTms unset, and the one-way propagation delay from the source
// to each hop. walk is the scratch of intraASWalk.
type route struct {
	hops    []Hop
	oneWay  []float64
	reached bool
	walk    []walkState
}

func (r *route) add(rt netsim.Router, oneWayMs float64) {
	r.hops = append(r.hops, Hop{Router: rt.ID, Addr: rt.Addr, ASN: rt.ASN})
	r.oneWay = append(r.oneWay, oneWayMs)
}

// Trace follows the BGP-selected AS path from src toward dst, expanding
// each AS hop into router-level hops over alive intra-AS links. failed
// lists dead IP links; jitterSeed perturbs RTTs deterministically, one
// draw per hop in hop order.
func (p *Prober) Trace(table *bgp.Table, failed map[netsim.LinkID]bool, src netsim.RouterID, dst netip.Addr, jitterSeed uint64) (Path, error) {
	var r route
	if err := p.route(&r, table, failed, src, dst); err != nil {
		return Path{}, err
	}
	out := Path{Src: src, Dst: dst, Hops: r.hops, Reached: r.reached}
	if len(out.Hops) == 0 {
		return out, nil // no route: probe times out, Reached stays false
	}
	rng := rand.New(rand.NewPCG(jitterSeed, jitterSeed^jitterKey))
	for i := range out.Hops {
		out.Hops[i].RTTms = hopRTT(r.oneWay[i], i+1, rng.Float64())
	}
	if out.Reached {
		out.RTTms = out.Hops[len(out.Hops)-1].RTTms
	}
	return out, nil
}

// route traces the path from src toward dst into r, reusing r's
// buffers, without timing it. Only an unknown source or a destination
// outside every prefix is an error; a path that dies on the way stops
// at its last responding hop with r.reached false.
func (p *Prober) route(r *route, table *bgp.Table, failed map[netsim.LinkID]bool, src netsim.RouterID, dst netip.Addr) error {
	r.hops, r.oneWay, r.reached = r.hops[:0], r.oneWay[:0], false
	srcR, ok := p.w.RouterByID(src)
	if !ok {
		return fmt.Errorf("traceroute: unknown source router %d", src)
	}
	origin, ok := p.w.OriginOf(dst)
	if !ok {
		return fmt.Errorf("traceroute: destination %v not in any prefix", dst)
	}
	asRoute, ok := table.Route(srcR.ASN, origin)
	if !ok {
		return nil
	}

	cur := srcR
	var oneWayMs float64
	r.add(cur, oneWayMs)
	for i := 0; i+1 < len(asRoute.Path); i++ {
		xl, ok := p.exitLink(cur.ASN, asRoute.Path[i+1], failed)
		if !ok {
			return nil // adjacency dead at IP layer
		}
		// Walk inside the current AS from cur to the link's near router.
		near, far := p.orientLink(xl, cur.ASN)
		if !p.intraASWalk(r, cur, near, failed, &oneWayMs) {
			return nil
		}
		// Cross the inter-AS link.
		oneWayMs += geo.PropagationDelayMs(xl.DistKm)
		farR, _ := p.w.RouterByID(far)
		r.add(farR, oneWayMs)
		cur = farR
	}

	// Final intra-AS walk to the destination router (the origin AS's
	// router inside the destination prefix's country).
	dstR, ok := p.destRouter(dst, origin)
	if !ok {
		return nil
	}
	r.reached = p.intraASWalk(r, cur, dstR.ID, failed, &oneWayMs)
	return nil
}

// exitLink finds the alive inter-AS IP link joining two ASes,
// preferring the lowest link ID for determinism.
func (p *Prober) exitLink(from, to netsim.ASN, failed map[netsim.LinkID]bool) (netsim.IPLink, bool) {
	for _, i := range p.group(p.exits[asPair(from, to)]) {
		if l := &p.w.IPLinks[i]; !failed[l.ID] {
			return *l, true
		}
	}
	return netsim.IPLink{}, false
}

// orientLink returns (nearRouter, farRouter) of a link relative to the
// AS we are currently inside.
func (p *Prober) orientLink(l netsim.IPLink, insideAS netsim.ASN) (netsim.RouterID, netsim.RouterID) {
	if l.ASLinkAB[0] == insideAS {
		return l.A, l.B
	}
	return l.B, l.A
}

// walkState is one router intraASWalk has reached: its best distance
// from the walk's start so far, and the router and IP-link position
// that distance arrives over.
type walkState struct {
	r, prev netsim.RouterID
	via     int32
	dist    float64
	done    bool
}

// intraASWalk moves from router cur to router target over alive
// intra-AS links of cur's AS, adding hops to r and accumulating one-way
// delay. Returns false when the backbone is partitioned.
func (p *Prober) intraASWalk(r *route, cur netsim.Router, target netsim.RouterID, failed map[netsim.LinkID]bool, oneWayMs *float64) bool {
	if cur.ID == target {
		return true
	}
	// Shortest-distance path (Dijkstra) over the AS's alive intra
	// links: IGP metrics track fiber latency, so geography decides the
	// internal route — this is what makes backbone failures show up as
	// latency shifts rather than invisible hop-count detours.
	states := append(r.walk[:0], walkState{r: cur.ID})
	defer func() { r.walk = states[:0] }()
	find := func(id netsim.RouterID) int {
		for i := range states {
			if states[i].r == id {
				return i
			}
		}
		return -1
	}
	for {
		// Extract the closest unfinished router (deterministic
		// tie-break by ID). Router counts per AS are small, so the
		// linear scan beats heap bookkeeping.
		ui := -1
		var u netsim.RouterID
		bestDist := math.Inf(1)
		for i, st := range states {
			if st.done {
				continue
			}
			if st.dist < bestDist || (st.dist == bestDist && st.r < u) {
				bestDist = st.dist
				u, ui = st.r, i
			}
		}
		if math.IsInf(bestDist, 1) {
			return false // target unreachable
		}
		if u == target {
			break
		}
		states[ui].done = true
		for _, li := range p.group(p.intra[u]) {
			l := &p.w.IPLinks[li]
			if l.ASLinkAB[0] != cur.ASN || failed[l.ID] {
				continue
			}
			v := l.A
			if v == u {
				v = l.B
			}
			nd := states[ui].dist + l.DistKm
			if vi := find(v); vi < 0 {
				states = append(states, walkState{r: v, prev: u, via: li, dist: nd})
			} else if st := &states[vi]; !st.done && nd < st.dist {
				st.prev, st.via, st.dist = u, li, nd
			}
		}
	}
	// Reconstruct the chain backward, then replay it forward.
	first := len(states)
	for at := target; at != cur.ID; {
		st := states[find(at)]
		states = append(states, st)
		at = st.prev
	}
	for i := len(states) - 1; i >= first; i-- {
		st := states[i]
		*oneWayMs += geo.PropagationDelayMs(p.w.IPLinks[st.via].DistKm)
		rt, _ := p.w.RouterByID(st.r)
		r.add(rt, *oneWayMs)
	}
	return true
}

// destRouter picks the origin AS's router in the destination prefix's
// country, falling back to the AS's first router.
func (p *Prober) destRouter(dst netip.Addr, origin netsim.ASN) (netsim.Router, bool) {
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

// Probe is one (source router, destination address) measurement pair.
type Probe struct {
	Name string
	Src  netsim.RouterID
	Dst  netip.Addr
}

// Measurement is one timed RTT sample. RTTms is zero when the probe
// did not reach its destination. A campaign's measurements of one probe
// between two failure events share one HopASNs slice: treat it as
// read-only.
type Measurement struct {
	Probe   string
	Time    time.Time
	RTTms   float64
	Reached bool
	HopASNs []netsim.ASN
}

// Campaign describes a measurement run over a time window with failure
// events occurring mid-window.
type Campaign struct {
	Probes   []Probe
	Start    time.Time
	End      time.Time
	Interval time.Duration
	Events   []bgp.FailureEvent
	Seed     uint64
}

// Archive holds campaign results, ordered by time then probe name.
type Archive struct {
	Measurements []Measurement
}

// RunCampaign executes every probe at every interval tick in the world
// of tables, which supplies the routing tables. Failure events change
// the routing table and alive-link set from their timestamp onward
// (cumulative, no recovery). Between two ticks that apply events
// nothing a trace reads can change, so each probe is traced once per
// such routing epoch, and each tick only draws the probe's jitter, one
// value per hop as Trace draws it, to time the stored route.
func RunCampaign(tables *bgp.Tables, c Campaign) (*Archive, error) {
	if len(c.Probes) == 0 {
		return nil, fmt.Errorf("traceroute: campaign has no probes")
	}
	if !c.Start.Before(c.End) || c.Interval <= 0 {
		return nil, fmt.Errorf("traceroute: invalid campaign window")
	}
	events := make([]bgp.FailureEvent, len(c.Events))
	copy(events, c.Events)
	sort.Slice(events, func(i, j int) bool { return events[i].At.Before(events[j].At) })

	ticks := 0
	for at := c.Start; at.Before(c.End); at = at.Add(c.Interval) {
		ticks++
	}
	arch := &Archive{Measurements: make([]Measurement, 0, ticks*len(c.Probes))}
	prober := NewProber(tables.World())
	failed := map[netsim.LinkID]bool{}
	table := tables.Table(failed)
	nextEvent := 0
	var (
		traced []epochRoute // each probe's route in this epoch; empty until traced
		buf    route
		pcg    rand.PCG
		rng    = rand.New(&pcg)
	)
	for at := c.Start; at.Before(c.End); at = at.Add(c.Interval) {
		applied := false
		for ; nextEvent < len(events) && !events[nextEvent].At.After(at); nextEvent++ {
			for _, id := range events[nextEvent].Links {
				failed[id] = true
			}
			applied = true
		}
		if applied {
			table = tables.Table(failed)
			traced = traced[:0]
		}
		if len(traced) == 0 {
			for _, pr := range c.Probes {
				if err := prober.route(&buf, table, failed, pr.Src, pr.Dst); err != nil {
					return nil, fmt.Errorf("traceroute: probe %s: %w", pr.Name, err)
				}
				traced = append(traced, newEpochRoute(&buf))
			}
		}
		for i, pr := range c.Probes {
			er := &traced[i]
			m := Measurement{Probe: pr.Name, Time: at, Reached: er.reached, HopASNs: er.asns}
			if er.reached {
				seed := c.Seed ^ hashProbe(pr.Name, at)
				pcg.Seed(seed, seed^jitterKey)
				var u float64
				for range er.hops {
					u = rng.Float64()
				}
				m.RTTms = hopRTT(er.oneWayMs, er.hops, u)
			}
			arch.Measurements = append(arch.Measurements, m)
		}
	}
	return arch, nil
}

// epochRoute is what a campaign keeps of one probe's route for a
// routing epoch: its AS sequence and what timing its last hop needs.
// An unreached probe reports no RTT, so its jitter is never drawn.
type epochRoute struct {
	asns     []netsim.ASN // hop ASNs with consecutive repeats collapsed
	hops     int
	oneWayMs float64 // one-way delay to the last hop
	reached  bool
}

func newEpochRoute(r *route) epochRoute {
	er := epochRoute{hops: len(r.hops), reached: r.reached}
	if er.hops == 0 {
		return er
	}
	er.oneWayMs = r.oneWay[er.hops-1]
	for i, h := range r.hops {
		if i == 0 || h.ASN != r.hops[i-1].ASN {
			er.asns = append(er.asns, h.ASN)
		}
	}
	return er
}

// hashProbe is FNV-1a (64-bit) over the probe name followed by the
// tick's UnixNano in little-endian byte order.
func hashProbe(name string, at time.Time) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	u := uint64(at.UnixNano())
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(u>>(8*i)))) * prime
	}
	return h
}

// Series extracts the (times, RTTs) series of one probe, skipping
// unreached samples.
func (a *Archive) Series(probe string) (times []time.Time, rtts []float64) {
	for i := range a.Measurements {
		m := &a.Measurements[i]
		if m.Probe != probe || !m.Reached {
			continue
		}
		times = append(times, m.Time)
		rtts = append(rtts, m.RTTms)
	}
	return times, rtts
}

// Probes lists the distinct probe names in the archive, sorted.
func (a *Archive) Probes() []string {
	set := map[string]bool{}
	for i := range a.Measurements {
		set[a.Measurements[i].Probe] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// LossRate returns the fraction of unreached samples for one probe.
func (a *Archive) LossRate(probe string) float64 {
	var total, lost float64
	for i := range a.Measurements {
		m := &a.Measurements[i]
		if m.Probe != probe {
			continue
		}
		total++
		if !m.Reached {
			lost++
		}
	}
	if total == 0 {
		return 0
	}
	return lost / total
}
