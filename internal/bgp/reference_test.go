package bgp

// The reference route computation and update stream: ComputeTable,
// with its liveAdjacency and computeOrigin, and GenerateStream as they
// were before one scenario injection built each distinct table once
// and the provider→customer phase popped from a heap. They are kept
// verbatim apart from their names. TestComputeTableMatchesReference
// and TestGenerateStreamMatchesReference require the package's tables
// and streams to equal theirs.

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"arachnet/internal/netsim"
)

func refLiveAdjacency(w *netsim.World, failed map[netsim.LinkID]bool) adjacency {
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
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		}
	}
	return adj
}

func refComputeTable(w *netsim.World, failed map[netsim.LinkID]bool) *Table {
	adj := refLiveAdjacency(w, failed)
	t := &Table{
		routes:      make(map[netsim.ASN]map[netsim.ASN]Route, len(w.ASes)),
		partitioned: PartitionedPrefixes(w, failed),
	}
	for _, a := range w.ASes {
		t.asns = append(t.asns, a.ASN)
		t.routes[a.ASN] = make(map[netsim.ASN]Route)
	}
	sort.Slice(t.asns, func(i, j int) bool { return t.asns[i] < t.asns[j] })

	for _, origin := range t.asns {
		refComputeOrigin(t, adj, origin)
	}
	return t
}

func refComputeOrigin(t *Table, adj adjacency, origin netsim.ASN) {
	best := map[netsim.ASN]candidate{
		origin: {kind: KindOrigin, hops: 0, next: origin, path: []netsim.ASN{origin}},
	}

	// Phase 1 — "up": propagate along customer→provider edges. The
	// receiving provider learns the route from its customer, so these are
	// customer routes, usable as a base for every later phase.
	frontier := []netsim.ASN{origin}
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
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
	var peerGains []netsim.ASN
	uphill := make([]netsim.ASN, 0, len(best))
	for asn := range best {
		uphill = append(uphill, asn)
	}
	sort.Slice(uphill, func(i, j int) bool { return uphill[i] < uphill[j] })
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
				peerGains = append(peerGains, p)
			}
		}
	}
	_ = peerGains

	// Phase 3 — "down": propagate along provider→customer edges. Any
	// route is exported to customers; received routes are provider
	// routes. Dijkstra-like expansion ordered by (hops, next) keeps it
	// deterministic.
	queue := make([]netsim.ASN, 0, len(best))
	for asn := range best {
		queue = append(queue, asn)
	}
	for len(queue) > 0 {
		sort.Slice(queue, func(i, j int) bool {
			bi, bj := best[queue[i]], best[queue[j]]
			if bi.hops != bj.hops {
				return bi.hops < bj.hops
			}
			return queue[i] < queue[j]
		})
		u := queue[0]
		queue = queue[1:]
		base := best[u]
		for _, c := range adj.customers[u] {
			cand := candidate{
				kind: KindProvider, hops: base.hops + 1, next: u,
				path: appendPath(c, base.path),
			}
			if cur, ok := best[c]; !ok || better(cand, cur) {
				best[c] = cand
				queue = append(queue, c)
			}
		}
	}

	for viewer, c := range best {
		t.routes[viewer][origin] = Route{Origin: origin, Path: c.path, Kind: c.kind}
	}
}

func refGenerateStream(w *netsim.World, events []FailureEvent, cfg StreamConfig) ([]Message, error) {
	if !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("bgp: empty stream window [%v, %v)", cfg.Start, cfg.End)
	}
	if len(cfg.Collectors) == 0 {
		return nil, fmt.Errorf("bgp: no collectors configured")
	}
	evs := make([]FailureEvent, len(events))
	copy(evs, events)
	sort.Slice(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })

	var out []Message

	// Failure-driven messages.
	failed := make(map[netsim.LinkID]bool)
	cur := refComputeTable(w, failed)
	for _, ev := range evs {
		if ev.At.Before(cfg.Start) || !ev.At.Before(cfg.End) {
			continue
		}
		for _, id := range ev.Links {
			failed[id] = true
		}
		next := refComputeTable(w, failed)
		out = append(out, Diff(w, cur, next, cfg.Collectors, ev.At)...)
		cur = next
	}

	// Background churn: benign re-announcements at random times from
	// random collectors, deterministic under the seed.
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))
	hours := cfg.End.Sub(cfg.Start).Hours()
	n := int(cfg.NoisePerHour * hours)
	base := refComputeTable(w, nil)
	for i := 0; i < n; i++ {
		at := cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.End.Sub(cfg.Start))))
		c := cfg.Collectors[rng.IntN(len(cfg.Collectors))]
		if len(w.Prefixes) == 0 {
			break
		}
		p := w.Prefixes[rng.IntN(len(w.Prefixes))]
		r, ok := base.Route(c, p.Origin)
		if !ok {
			continue
		}
		out = append(out, Message{Time: at, Collector: c, Type: Announce, Prefix: p.CIDR, Path: clonePath(r.Path)})
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}
