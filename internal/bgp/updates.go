package bgp

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sort"
	"time"

	"arachnet/internal/netsim"
)

// MessageType distinguishes announcements from withdrawals.
type MessageType uint8

// Update message types.
const (
	Announce MessageType = 1
	Withdraw MessageType = 2
)

// String implements fmt.Stringer.
func (t MessageType) String() string {
	switch t {
	case Announce:
		return "A"
	case Withdraw:
		return "W"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Message is one BGP update as seen by a collector peer.
type Message struct {
	Time      time.Time
	Collector netsim.ASN // the vantage AS that observed the update
	Type      MessageType
	Prefix    netip.Prefix
	Path      []netsim.ASN // empty for withdrawals
}

// Diff compares two tables from the viewpoint of the given collector
// ASes and emits one message per changed (collector, prefix) pair,
// stamped with the given time. Prefixes are expanded from the world's
// allocation (one route per origin covers all of that origin's
// prefixes, as in real BGP).
func Diff(w *netsim.World, before, after *Table, collectors []netsim.ASN, at time.Time) []Message {
	prefixesOf := make(map[netsim.ASN][]netip.Prefix)
	for _, p := range w.Prefixes {
		prefixesOf[p.Origin] = append(prefixesOf[p.Origin], p.CIDR)
	}
	var out []Message
	cs := make([]netsim.ASN, len(collectors))
	copy(cs, collectors)
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })

	for _, c := range cs {
		origins := make(map[netsim.ASN]bool)
		for o := range before.RoutesFrom(c) {
			origins[o] = true
		}
		for o := range after.RoutesFrom(c) {
			origins[o] = true
		}
		ordered := make([]netsim.ASN, 0, len(origins))
		for o := range origins {
			ordered = append(ordered, o)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

		for _, o := range ordered {
			rb, okB := before.Route(c, o)
			ra, okA := after.Route(c, o)
			for _, p := range prefixesOf[o] {
				// Origin-side partitioning dominates: a prefix whose PoP
				// fell off its AS backbone is withdrawn regardless of the
				// AS-level route.
				pb := !before.Partitioned(p) && okB
				pa := !after.Partitioned(p) && okA
				switch {
				case pb && !pa:
					out = append(out, Message{Time: at, Collector: c, Type: Withdraw, Prefix: p})
				case !pb && pa:
					out = append(out, Message{Time: at, Collector: c, Type: Announce, Prefix: p, Path: clonePath(ra.Path)})
				case pb && pa && !PathEqual(rb.Path, ra.Path):
					out = append(out, Message{Time: at, Collector: c, Type: Announce, Prefix: p, Path: clonePath(ra.Path)})
				}
			}
		}
	}
	return out
}

func clonePath(p []netsim.ASN) []netsim.ASN {
	out := make([]netsim.ASN, len(p))
	copy(out, p)
	return out
}

// FailureEvent is one timed infrastructure failure: a set of IP links
// that die at a given instant (and stay dead).
type FailureEvent struct {
	At    time.Time
	Links []netsim.LinkID
	Label string // human-readable cause, e.g. "cable:seamewe-5"
}

// StreamConfig controls synthetic update-stream generation.
type StreamConfig struct {
	Start      time.Time
	End        time.Time
	Collectors []netsim.ASN
	// NoisePerHour is the expected count of benign background updates
	// per hour (path churn unrelated to the failure under study).
	NoisePerHour float64
	Seed         uint64
}

// GenerateStream produces a time-ordered update stream covering the
// window in the world of tables, which supplies the routing tables:
// background churn plus the table diffs caused by each failure event.
// The cumulative failure state applies (links do not recover).
func GenerateStream(tables *Tables, events []FailureEvent, cfg StreamConfig) ([]Message, error) {
	if !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("bgp: empty stream window [%v, %v)", cfg.Start, cfg.End)
	}
	if len(cfg.Collectors) == 0 {
		return nil, fmt.Errorf("bgp: no collectors configured")
	}
	evs := make([]FailureEvent, len(events))
	copy(evs, events)
	sort.Slice(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })

	w := tables.World()
	var out []Message

	// Failure-driven messages.
	failed := make(map[netsim.LinkID]bool)
	cur := tables.Table(failed)
	for _, ev := range evs {
		if ev.At.Before(cfg.Start) || !ev.At.Before(cfg.End) {
			continue
		}
		for _, id := range ev.Links {
			failed[id] = true
		}
		next := tables.Table(failed)
		out = append(out, Diff(w, cur, next, cfg.Collectors, ev.At)...)
		cur = next
	}

	// Background churn: benign re-announcements at random times from
	// random collectors, deterministic under the seed.
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))
	hours := cfg.End.Sub(cfg.Start).Hours()
	n := int(cfg.NoisePerHour * hours)
	base := tables.Table(nil)
	var churn []Message
	if n > 0 && len(w.Prefixes) > 0 {
		churn = make([]Message, 0, n)
	}
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
		churn = append(churn, Message{Time: at, Collector: c, Type: Announce, Prefix: p.CIDR, Path: clonePath(r.Path)})
	}
	return mergeByTime(out, churn), nil
}

// mergeByTime returns failure, already in time order, and churn, in
// draw order, as one time-ordered stream: the order a stable sort of
// failure followed by churn gives. Equal times keep failure messages
// first and churn in draw order, so only churn is sorted, by time and
// then draw index, and the two runs merge.
func mergeByTime(failure, churn []Message) []Message {
	order := make([]int32, len(churn))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := churn[a].Time.Compare(churn[b].Time); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := make([]Message, 0, len(failure)+len(churn))
	f := 0
	for _, i := range order {
		for ; f < len(failure) && !failure[f].Time.After(churn[i].Time); f++ {
			out = append(out, failure[f])
		}
		out = append(out, churn[i])
	}
	return append(out, failure[f:]...)
}
