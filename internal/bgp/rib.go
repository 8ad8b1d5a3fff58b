// Package bgp implements the BGP substrate: policy-aware route
// computation over the synthetic AS topology (the Gao–Rexford model),
// event-driven update streams, an MRT-style binary dump format, and
// update-burst anomaly detection.
//
// It stands in for the RouteViews/RIS data sources the paper's workflows
// consume: instead of downloading collector dumps, workflows compute
// tables and updates from the simulated world, with failures expressed
// as sets of dead IP links.
package bgp

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"arachnet/internal/netsim"
)

// RouteKind records how a route was learned, which drives preference.
type RouteKind int

// Route kinds in decreasing preference order.
const (
	KindOrigin   RouteKind = iota // the viewer originates the prefix
	KindCustomer                  // learned from a customer
	KindPeer                      // learned from a peer
	KindProvider                  // learned from a provider
)

// String implements fmt.Stringer.
func (k RouteKind) String() string {
	switch k {
	case KindOrigin:
		return "origin"
	case KindCustomer:
		return "customer"
	case KindPeer:
		return "peer"
	case KindProvider:
		return "provider"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Route is one AS-level best path from a viewer to an origin.
type Route struct {
	Origin netsim.ASN
	Path   []netsim.ASN // viewer first, origin last
	Kind   RouteKind
}

// Table holds the best route of every AS (viewer) toward every origin
// AS, under a given failure scenario. It is the AS-level analogue of a
// full RIB snapshot across all collectors. It also records prefixes
// whose originating PoP was cut off from its AS's backbone — those are
// withdrawn globally even though the AS itself stays reachable (BGP
// sees the origin stop announcing, not the intra-AS breakage).
type Table struct {
	routes      map[netsim.ASN]map[netsim.ASN]Route // viewer → origin → route
	asns        []netsim.ASN
	partitioned map[netip.Prefix]bool
}

// Partitioned reports whether a prefix's originating PoP is cut off
// from its AS backbone under this table's failure scenario.
func (t *Table) Partitioned(p netip.Prefix) bool { return t.partitioned[p] }

// PartitionedPrefixes computes the prefixes whose (AS, country) router
// cannot reach its AS's home router over alive intra-AS links. Those
// origins stop announcing: the control-plane shadow of a backbone cut.
func PartitionedPrefixes(w *netsim.World, failed map[netsim.LinkID]bool) map[netip.Prefix]bool {
	out := map[netip.Prefix]bool{}
	// Build per-AS alive backbone adjacency.
	adj := map[netsim.ASN]map[netsim.RouterID][]netsim.RouterID{}
	for _, l := range w.IPLinks {
		if !l.IntraAS || failed[l.ID] {
			continue
		}
		asn := l.ASLinkAB[0]
		if adj[asn] == nil {
			adj[asn] = map[netsim.RouterID][]netsim.RouterID{}
		}
		adj[asn][l.A] = append(adj[asn][l.A], l.B)
		adj[asn][l.B] = append(adj[asn][l.B], l.A)
	}
	prefixesOf := map[string][]netip.Prefix{} // "asn/country" → prefixes
	for _, p := range w.Prefixes {
		key := fmt.Sprintf("%d/%s", p.Origin, p.Country)
		prefixesOf[key] = append(prefixesOf[key], p.CIDR)
	}
	for _, a := range w.ASes {
		routers := w.RoutersOf(a.ASN)
		if len(routers) < 2 {
			continue
		}
		home, ok := w.RouterIn(a.ASN, a.Home)
		if !ok {
			r, _ := w.RouterByID(routers[0])
			home = r
		}
		reach := map[netsim.RouterID]bool{home.ID: true}
		queue := []netsim.RouterID{home.ID}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[a.ASN][cur] {
				if !reach[nb] {
					reach[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		for _, id := range routers {
			if reach[id] {
				continue
			}
			r, _ := w.RouterByID(id)
			for _, p := range prefixesOf[fmt.Sprintf("%d/%s", a.ASN, r.Country)] {
				out[p] = true
			}
		}
	}
	return out
}

// adjacency is the working AS graph after removing failed links.
type adjacency struct {
	customers map[netsim.ASN][]netsim.ASN // provider → customers
	providers map[netsim.ASN][]netsim.ASN // customer → providers
	peers     map[netsim.ASN][]netsim.ASN
}

// liveAdjacency derives the AS graph that survives a set of failed IP
// links: an AS adjacency is alive while at least one inter-AS IP link
// realizing it is alive.
func liveAdjacency(w *netsim.World, failed map[netsim.LinkID]bool) adjacency {
	alive := make(map[[2]netsim.ASN]bool)
	for _, l := range w.IPLinks {
		if l.IntraAS || failed[l.ID] {
			continue
		}
		a, b := l.ASLinkAB[0], l.ASLinkAB[1]
		if a > b {
			a, b = b, a
		}
		alive[[2]netsim.ASN{a, b}] = true
	}
	adj := adjacency{
		customers: make(map[netsim.ASN][]netsim.ASN),
		providers: make(map[netsim.ASN][]netsim.ASN),
		peers:     make(map[netsim.ASN][]netsim.ASN),
	}
	for _, al := range w.ASLinks {
		a, b := al.A, al.B
		ka, kb := a, b
		if ka > kb {
			ka, kb = kb, ka
		}
		if !alive[[2]netsim.ASN{ka, kb}] {
			continue
		}
		switch al.Rel {
		case netsim.CustomerToProvider:
			adj.providers[a] = append(adj.providers[a], b)
			adj.customers[b] = append(adj.customers[b], a)
		case netsim.PeerToPeer:
			adj.peers[a] = append(adj.peers[a], b)
			adj.peers[b] = append(adj.peers[b], a)
		}
	}
	for _, m := range []map[netsim.ASN][]netsim.ASN{adj.customers, adj.providers, adj.peers} {
		for _, ns := range m {
			slices.Sort(ns)
		}
	}
	return adj
}

// ComputeTable computes best routes for every (viewer, origin) pair
// under the Gao–Rexford export policy: routes learned from customers are
// exported to everyone; routes learned from peers or providers are
// exported only to customers. Preference is customer > peer > provider,
// then shortest AS path, then lowest next-hop ASN.
func ComputeTable(w *netsim.World, failed map[netsim.LinkID]bool) *Table {
	adj := liveAdjacency(w, failed)
	t := &Table{
		routes:      make(map[netsim.ASN]map[netsim.ASN]Route, len(w.ASes)),
		partitioned: PartitionedPrefixes(w, failed),
	}
	for _, a := range w.ASes {
		t.asns = append(t.asns, a.ASN)
		t.routes[a.ASN] = make(map[netsim.ASN]Route, len(w.ASes))
	}
	slices.Sort(t.asns)

	// computeOrigin's working set and queue, reused across origins.
	best := make(map[netsim.ASN]candidate, len(t.asns))
	var queue downQueue
	for _, origin := range t.asns {
		computeOrigin(t, adj, origin, best, &queue)
	}
	return t
}

// Tables builds each distinct routing table of one world once: Table
// computes the table of a failed-link set on the first request for
// that set's contents and returns the same table after. One scenario
// injection shares one Tables between probe selection, the traceroute
// campaign and the update stream, so the healthy and the failed table
// are each computed once, and the tables are dropped with the
// injection. Not safe for concurrent use.
type Tables struct {
	w     *netsim.World
	built []builtTable
}

type builtTable struct {
	failed []netsim.LinkID // ascending
	table  *Table
}

// NewTables returns an empty table memo over w.
func NewTables(w *netsim.World) *Tables { return &Tables{w: w} }

// World returns the world the tables are computed over.
func (ts *Tables) World() *netsim.World { return ts.w }

// Table returns ComputeTable(ts.World(), failed), computing it only
// for a set of failed links (those failed maps to true) not seen
// before. The memo keys on the set's contents, not on the map, so a
// caller may keep adding to one map between calls.
func (ts *Tables) Table(failed map[netsim.LinkID]bool) *Table {
	key := make([]netsim.LinkID, 0, len(failed))
	for id, dead := range failed {
		if dead {
			key = append(key, id)
		}
	}
	slices.Sort(key)
	for _, b := range ts.built {
		if slices.Equal(b.failed, key) {
			return b.table
		}
	}
	t := ComputeTable(ts.w, failed)
	ts.built = append(ts.built, builtTable{failed: key, table: t})
	return t
}

// computeOrigin runs the three-phase valley-free propagation from one
// origin and stores the best route of every viewer that can reach it.
type candidate struct {
	kind RouteKind
	hops int
	next netsim.ASN // next hop toward origin (for deterministic tiebreak)
	path []netsim.ASN
}

func better(a, b candidate) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.next < b.next
}

func computeOrigin(t *Table, adj adjacency, origin netsim.ASN, best map[netsim.ASN]candidate, queue *downQueue) {
	clear(best)
	best[origin] = candidate{kind: KindOrigin, hops: 0, next: origin, path: []netsim.ASN{origin}}

	// Phase 1 — "up": propagate along customer→provider edges. The
	// receiving provider learns the route from its customer, so these are
	// customer routes, usable as a base for every later phase.
	frontier := []netsim.ASN{origin}
	for len(frontier) > 0 {
		slices.Sort(frontier)
		var next []netsim.ASN
		for _, u := range frontier {
			base := best[u]
			for _, p := range adj.providers[u] {
				cand := candidate{
					kind: KindCustomer, hops: base.hops + 1, next: u,
					path: appendPath(p, base.path),
				}
				if cur, ok := best[p]; !ok || better(cand, cur) {
					best[p] = cand
					next = append(next, p)
				}
			}
		}
		frontier = next
	}

	// Phase 2 — "across": a single peer edge. Only customer/origin routes
	// are exported to peers.
	uphill := make([]netsim.ASN, 0, len(best))
	for asn := range best {
		uphill = append(uphill, asn)
	}
	slices.Sort(uphill)
	for _, u := range uphill {
		base := best[u]
		if base.kind != KindCustomer && base.kind != KindOrigin {
			continue
		}
		for _, p := range adj.peers[u] {
			cand := candidate{
				kind: KindPeer, hops: base.hops + 1, next: u,
				path: appendPath(p, base.path),
			}
			if cur, ok := best[p]; !ok || better(cand, cur) {
				best[p] = cand
			}
		}
	}

	// Phase 3 — "down": propagate along provider→customer edges. Any
	// route is exported to customers; received routes are provider
	// routes. Dijkstra-like expansion ordered by (hops, ASN) keeps it
	// deterministic. An AS is queued with the hop count of the route it
	// gained; once it gains a shorter one, its older entry is superseded
	// and skipped.
	q := (*queue)[:0]
	for asn, c := range best {
		q = append(q, downEntry{hops: c.hops, asn: asn})
	}
	slices.SortFunc(q, downEntry.compare) // a sorted slice is a heap
	for len(q) > 0 {
		var e downEntry
		q, e = q.pop()
		base := best[e.asn]
		if base.hops != e.hops {
			continue
		}
		for _, c := range adj.customers[e.asn] {
			cand := candidate{
				kind: KindProvider, hops: base.hops + 1, next: e.asn,
				path: appendPath(c, base.path),
			}
			if cur, ok := best[c]; !ok || better(cand, cur) {
				best[c] = cand
				q = q.push(downEntry{hops: cand.hops, asn: c})
			}
		}
	}
	*queue = q

	for viewer, c := range best {
		t.routes[viewer][origin] = Route{Origin: origin, Path: c.path, Kind: c.kind}
	}
}

// downEntry is one queued AS of the provider→customer phase.
type downEntry struct {
	hops int
	asn  netsim.ASN
}

func (a downEntry) compare(b downEntry) int {
	if c := cmp.Compare(a.hops, b.hops); c != 0 {
		return c
	}
	return cmp.Compare(a.asn, b.asn)
}

// downQueue is a binary min-heap of downEntry under compare.
type downQueue []downEntry

func (q downQueue) push(e downEntry) downQueue {
	q = append(q, e)
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if q[i].compare(q[up]) >= 0 {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
	return q
}

func (q downQueue) pop() (downQueue, downEntry) {
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].compare(q[m]) < 0 {
			m = r
		}
		if q[m].compare(q[i]) >= 0 {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return q, top
}

func appendPath(head netsim.ASN, tail []netsim.ASN) []netsim.ASN {
	p := make([]netsim.ASN, 0, len(tail)+1)
	p = append(p, head)
	p = append(p, tail...)
	return p
}

// Route returns the best route from viewer to origin.
func (t *Table) Route(viewer, origin netsim.ASN) (Route, bool) {
	r, ok := t.routes[viewer][origin]
	return r, ok
}

// Reachable reports whether viewer has any route to origin.
func (t *Table) Reachable(viewer, origin netsim.ASN) bool {
	_, ok := t.routes[viewer][origin]
	return ok
}

// Viewers returns every AS in the table, ascending.
func (t *Table) Viewers() []netsim.ASN {
	out := make([]netsim.ASN, len(t.asns))
	copy(out, t.asns)
	return out
}

// RoutesFrom returns all routes of one viewer keyed by origin.
func (t *Table) RoutesFrom(viewer netsim.ASN) map[netsim.ASN]Route {
	out := make(map[netsim.ASN]Route, len(t.routes[viewer]))
	for o, r := range t.routes[viewer] {
		out[o] = r
	}
	return out
}

// ReachabilityMatrixSize returns (reachable pairs, total pairs) as a
// coarse connectivity metric used by impact analyses.
func (t *Table) ReachabilityMatrixSize() (reachable, total int) {
	n := len(t.asns)
	total = n * n
	for _, m := range t.routes {
		reachable += len(m)
	}
	return reachable, total
}

// PathEqual reports whether two AS paths are identical.
func PathEqual(a, b []netsim.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
