// Command worldgen generates a synthetic world and prints its
// inventory: AS tiers, link media, cable mapping coverage and the
// busiest cables — the inspection tool for choosing scenario seeds.
// With -shards it additionally partitions the world for a worker
// fleet and prints (or emits, with -shards and the default output)
// the per-shard inventory; -scale multiplies the density knobs (15
// gives the 10.7x world of BenchmarkAskFleet's scale=15 rows).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
)

func main() {
	var (
		seed   = flag.Uint64("seed", 42, "world seed")
		small  = flag.Bool("small", false, "use the compact 12-country world")
		top    = flag.Int("top", 10, "how many cables to list")
		shards = flag.Int("shards", 0, "partition the world into N fleet shards and print the per-shard inventory")
		scale  = flag.Int("scale", 1, "multiply world density (stubs per country, tier-2 per region, content ASes) by this factor")
	)
	flag.Parse()

	cfg := netsim.DefaultConfig(*seed)
	if *small {
		cfg = netsim.SmallConfig(*seed)
	}
	if *scale > 1 {
		cfg.StubsPerCountry *= *scale
		cfg.Tier2PerRegion *= *scale
		cfg.ContentCount *= *scale
	}
	w, err := netsim.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println("world:", w.Summary())

	if *shards > 0 {
		p, err := netsim.PartitionWorld(w, *shards)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("partition: %d shards\n", p.N)
		for _, s := range p.Shards {
			fmt.Printf("  shard %d: %3d countries %5d routers %6d links  %v\n",
				s.Index, len(s.Countries), s.Routers, s.Links, s.Countries)
		}
	}

	tiers := map[netsim.Tier]int{}
	for _, a := range w.ASes {
		tiers[a.Tier]++
	}
	fmt.Printf("tiers: tier1=%d tier2=%d stub=%d content=%d\n",
		tiers[netsim.Tier1], tiers[netsim.Tier2], tiers[netsim.Stub], tiers[netsim.Content])

	cat := nautilus.BuildCatalog()
	m, err := nautilus.MapWorld(w, cat)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cross-layer map: %.0f%% of %d submarine links mapped, %d unmapped\n",
		m.Coverage(w)*100, len(w.SubmarineLinks()), len(m.Unmapped))

	type load struct {
		id nautilus.CableID
		n  int
	}
	var loads []load
	for _, c := range cat.Cables() {
		if n := len(m.LinksOn(c.ID)); n > 0 {
			loads = append(loads, load{id: c.ID, n: n})
		}
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].n != loads[j].n {
			return loads[i].n > loads[j].n
		}
		return loads[i].id < loads[j].id
	})
	fmt.Printf("busiest cables (of %d in catalog, %d carrying traffic):\n", cat.Len(), len(loads))
	for i, l := range loads {
		if i >= *top {
			break
		}
		c, _ := cat.ByID(l.id)
		fmt.Printf("  %-18s %3d links  (%s)\n", l.id, l.n, c.Name)
	}
	if v := m.ValidateSoL(w, 0.05); len(v) > 0 {
		fmt.Printf("speed-of-light violations at tolerance 0.05: %d\n", len(v))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "worldgen:", err)
	os.Exit(1)
}
