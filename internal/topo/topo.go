// Package topo provides AS-level dependency analysis and cascading
// failure propagation: customer cones, transit-dependency graphs,
// stress propagation over the AS graph, and capacity-based cascade
// modeling over the submarine-cable layer.
//
// These are the graph algorithms the paper's Case Study 3 leans on
// ("secondary integration leverages submarine cable and AS dependency
// graphs for cascade propagation modeling").
package topo

import (
	"slices"
	"sort"

	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
)

// CustomerCone returns the set of ASes reachable from asn by walking
// provider→customer edges (asn's economic downstream), excluding asn
// itself, in ascending order.
func CustomerCone(w *netsim.World, asn netsim.ASN) []netsim.ASN {
	customers := map[netsim.ASN][]netsim.ASN{}
	for _, l := range w.ASLinks {
		if l.Rel == netsim.CustomerToProvider {
			customers[l.B] = append(customers[l.B], l.A)
		}
	}
	seen := map[netsim.ASN]bool{asn: true}
	queue := []netsim.ASN{asn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range customers[cur] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	delete(seen, asn)
	out := make([]netsim.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConeSizes returns the customer-cone size of every AS; a coarse
// influence metric (tier-1s have the largest cones).
func ConeSizes(w *netsim.World) map[netsim.ASN]int {
	out := make(map[netsim.ASN]int, len(w.ASes))
	for _, a := range w.ASes {
		out[a.ASN] = len(CustomerCone(w, a.ASN))
	}
	return out
}

// Dependency is one weighted transit dependency: From relies on To for
// upstream connectivity with the given weight (1/number of providers).
type Dependency struct {
	From, To netsim.ASN
	Weight   float64
}

// DependencyGraph lists every transit dependency, sorted by (From, To).
func DependencyGraph(w *netsim.World) []Dependency {
	providers := map[netsim.ASN][]netsim.ASN{}
	for _, l := range w.ASLinks {
		if l.Rel == netsim.CustomerToProvider {
			providers[l.A] = append(providers[l.A], l.B)
		}
	}
	var out []Dependency
	for from, ps := range providers {
		wgt := 1.0 / float64(len(ps))
		for _, to := range ps {
			out = append(out, Dependency{From: from, To: to, Weight: wgt})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// StressResult is the outcome of AS-level stress propagation.
type StressResult struct {
	// Stress is each AS's fraction of inter-AS link capacity lost,
	// including losses induced by degraded neighbors.
	Stress map[netsim.ASN]float64
	// Degraded lists ASes whose stress reached the threshold, ascending.
	Degraded []netsim.ASN
	// Waves groups newly degraded ASes by propagation round: Waves[0]
	// degraded directly from the physical failure, Waves[1] from wave 0,
	// and so on.
	Waves [][]netsim.ASN
	// Rounds is the number of propagation rounds until fixpoint.
	Rounds int
}

// PropagateStress models cascading degradation at the AS level. Each
// AS's capacity inventory is all of its IP links: inter-AS interconnects
// plus its own intra-AS backbone (the long-haul links that ride
// submarine cables). Initial stress is the fraction of that inventory
// physically failed. Any AS at or above threshold degrades; links to a
// degraded AS count as lost for its neighbors, which may push them over
// the threshold in the next round, and so on until a fixpoint (or
// maxRounds).
func PropagateStress(w *netsim.World, failedLinks map[netsim.LinkID]bool, threshold float64, maxRounds int) StressResult {
	if maxRounds <= 0 {
		maxRounds = 16
	}
	// Link inventory per AS: inter-AS edges know their neighbor so that
	// neighbor degradation propagates; backbone edges only fail
	// physically.
	type edge struct {
		id       netsim.LinkID
		neighbor netsim.ASN // 0 for intra-AS backbone links
	}
	links := map[netsim.ASN][]edge{}
	for _, l := range w.IPLinks {
		a, b := l.ASLinkAB[0], l.ASLinkAB[1]
		if l.IntraAS {
			links[a] = append(links[a], edge{id: l.ID})
			continue
		}
		links[a] = append(links[a], edge{id: l.ID, neighbor: b})
		links[b] = append(links[b], edge{id: l.ID, neighbor: a})
	}

	degraded := map[netsim.ASN]bool{}
	res := StressResult{Stress: make(map[netsim.ASN]float64, len(w.ASes))}

	for round := 0; round < maxRounds; round++ {
		var wave []netsim.ASN
		for _, a := range w.ASes {
			es := links[a.ASN]
			if len(es) == 0 {
				continue
			}
			lost := 0
			for _, e := range es {
				if failedLinks[e.id] || (e.neighbor != 0 && degraded[e.neighbor]) {
					lost++
				}
			}
			stress := float64(lost) / float64(len(es))
			res.Stress[a.ASN] = stress
			if stress >= threshold && !degraded[a.ASN] {
				wave = append(wave, a.ASN)
			}
		}
		if len(wave) == 0 {
			break
		}
		sort.Slice(wave, func(i, j int) bool { return wave[i] < wave[j] })
		for _, a := range wave {
			degraded[a] = true
		}
		res.Waves = append(res.Waves, wave)
		res.Rounds++
	}

	res.Degraded = make([]netsim.ASN, 0, len(degraded))
	for a := range degraded {
		res.Degraded = append(res.Degraded, a)
	}
	sort.Slice(res.Degraded, func(i, j int) bool { return res.Degraded[i] < res.Degraded[j] })
	return res
}

// CableCascade is the outcome of capacity-based cascade modeling on the
// cable layer.
type CableCascade struct {
	// Rounds groups failed cables by round: Rounds[0] is the initial
	// failure set, later rounds are overload-induced.
	Rounds [][]nautilus.CableID
	// Failed is the union of all rounds, sorted.
	Failed []nautilus.CableID
	// FinalLoad is each surviving cable's load after redistribution,
	// in units of carried IP links.
	FinalLoad map[nautilus.CableID]float64
	// Overloaded reports by how much each failed cable exceeded its
	// capacity (0 for the initial set).
	Overloaded map[nautilus.CableID]float64
}

// CascadeCables runs Motter–Lai-style load redistribution on the cable
// layer. Each cable's initial load is the number of IP links mapped to
// it; capacity is load × capacityFactor. When a cable fails its load
// redistributes equally over parallel cables (cables sharing its two
// terminal regions); any cable pushed past capacity fails in the next
// round. capacityFactor ≤ 1 would be degenerate, so it is clamped to a
// minimum of 1.05.
func CascadeCables(cat *nautilus.Catalog, m *nautilus.CrossLayerMap, initial []nautilus.CableID, capacityFactor float64) CableCascade {
	if capacityFactor < 1.05 {
		capacityFactor = 1.05
	}
	load := map[nautilus.CableID]float64{}
	capacity := map[nautilus.CableID]float64{}
	for _, c := range cat.Cables() {
		l := float64(len(m.LinksOn(c.ID)))
		load[c.ID] = l
		// Even idle cables have headroom for a couple of links.
		capacity[c.ID] = l*capacityFactor + 2
	}

	failed := map[nautilus.CableID]bool{}
	res := CableCascade{
		FinalLoad:  map[nautilus.CableID]float64{},
		Overloaded: map[nautilus.CableID]float64{},
	}

	round := dedupeCables(initial)
	for len(round) > 0 {
		res.Rounds = append(res.Rounds, round)
		// Mark failures, then redistribute their load.
		for _, id := range round {
			failed[id] = true
		}
		for _, id := range round {
			parallels := parallelCables(cat, id, failed)
			if len(parallels) == 0 {
				continue // capacity simply lost
			}
			share := load[id] / float64(len(parallels))
			for _, p := range parallels {
				load[p] += share
			}
			load[id] = 0
		}
		// Collect overloads for the next round.
		var next []nautilus.CableID
		for _, c := range cat.Cables() {
			if failed[c.ID] {
				continue
			}
			if load[c.ID] > capacity[c.ID] {
				next = append(next, c.ID)
				res.Overloaded[c.ID] = load[c.ID] - capacity[c.ID]
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		round = next
	}

	for id, l := range load {
		if !failed[id] {
			res.FinalLoad[id] = l
		}
	}
	res.Failed = make([]nautilus.CableID, 0, len(failed))
	for id := range failed {
		res.Failed = append(res.Failed, id)
	}
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i] < res.Failed[j] })
	return res
}

// parallelCables returns surviving cables sharing at least two regions
// with the given cable — the systems traffic would realistically shift
// onto.
func parallelCables(cat *nautilus.Catalog, id nautilus.CableID, failed map[nautilus.CableID]bool) []nautilus.CableID {
	return slices.DeleteFunc(cat.SharingRegions(id, 2), func(other nautilus.CableID) bool { return failed[other] })
}

func dedupeCables(ids []nautilus.CableID) []nautilus.CableID {
	seen := map[nautilus.CableID]bool{}
	var out []nautilus.CableID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
