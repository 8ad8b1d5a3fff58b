package topo

// The reference parallel-cable search: parallelCables as it was before
// the catalog derived each cable's regions once, kept verbatim apart
// from its name.

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"arachnet/internal/nautilus"
)

func refParallelCables(cat *nautilus.Catalog, id nautilus.CableID, failed map[nautilus.CableID]bool) []nautilus.CableID {
	c, ok := cat.ByID(id)
	if !ok {
		return nil
	}
	regions := c.Regions()
	var out []nautilus.CableID
	for _, other := range cat.Cables() {
		if other.ID == id || failed[other.ID] {
			continue
		}
		shared := 0
		for _, r := range other.Regions() {
			for _, r2 := range regions {
				if r == r2 {
					shared++
				}
			}
		}
		if shared >= 2 {
			out = append(out, other.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestParallelCablesMatchesReference requires parallelCables to find
// the reference's cables for every catalog cable and an unknown one,
// with no cable failed, with random sets failed and with every cable
// failed.
func TestParallelCablesMatchesReference(t *testing.T) {
	cat := nautilus.BuildCatalog()
	ids := []nautilus.CableID{"atlantis-99"}
	all := map[nautilus.CableID]bool{}
	for _, c := range cat.Cables() {
		ids = append(ids, c.ID)
		all[c.ID] = true
	}
	rng := rand.New(rand.NewPCG(9, 10))
	sets := []map[nautilus.CableID]bool{nil, all}
	for range 8 {
		set := map[nautilus.CableID]bool{}
		for range rng.IntN(12) {
			set[ids[rng.IntN(len(ids))]] = rng.IntN(5) > 0
		}
		sets = append(sets, set)
	}
	for _, failed := range sets {
		for _, id := range ids {
			if got, want := parallelCables(cat, id, failed), refParallelCables(cat, id, failed); !slices.Equal(got, want) {
				t.Fatalf("parallelCables(%s, %v) = %v, reference %v", id, failed, got, want)
			}
		}
	}
}
