package bgp

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"arachnet/internal/netsim"
)

// refWorlds are the worlds the reference comparisons run over: six
// small worlds, and two full-size ones unless full is false or the
// run is -short.
func refWorlds(t *testing.T, full bool) []*netsim.World {
	t.Helper()
	var cfgs []netsim.Config
	for seed := uint64(1); seed <= 6; seed++ {
		cfgs = append(cfgs, netsim.SmallConfig(seed))
	}
	if full && !testing.Short() {
		cfgs = append(cfgs, netsim.DefaultConfig(42), netsim.DefaultConfig(7))
	}
	out := make([]*netsim.World, len(cfgs))
	for i, cfg := range cfgs {
		w, err := netsim.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = w
	}
	return out
}

// randomFailures draws failed-link sets over w: a few random links, a
// tenth of all links, and every inter-AS link of one AS, each with
// some links explicitly marked alive.
func randomFailures(w *netsim.World, rng *rand.Rand) []map[netsim.LinkID]bool {
	var sets []map[netsim.LinkID]bool
	for _, n := range []int{1, 3, 12, len(w.IPLinks) / 10} {
		set := map[netsim.LinkID]bool{}
		for range n {
			set[w.IPLinks[rng.IntN(len(w.IPLinks))].ID] = rng.IntN(8) > 0
		}
		sets = append(sets, set)
	}
	as := w.ASes[rng.IntN(len(w.ASes))].ASN
	isolated := map[netsim.LinkID]bool{}
	for _, l := range w.IPLinks {
		if !l.IntraAS && (l.ASLinkAB[0] == as || l.ASLinkAB[1] == as) {
			isolated[l.ID] = true
		}
	}
	return append(sets, isolated)
}

// TestComputeTableMatchesReference requires ComputeTable to build the
// reference's table, route for route, for the healthy world and random
// failure sets.
func TestComputeTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i, w := range refWorlds(t, true) {
		sets := append([]map[netsim.LinkID]bool{nil}, randomFailures(w, rng)...)
		for j, failed := range sets {
			got, want := ComputeTable(w, failed), refComputeTable(w, failed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d, failure set %d (%d links): table differs from the reference", i, j, len(failed))
			}
		}
	}
}

// TestGenerateStreamMatchesReference requires GenerateStream to emit
// the reference's stream for random events, in and out of the window.
func TestGenerateStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(48 * time.Hour)
	for i, w := range refWorlds(t, false) {
		sets := randomFailures(w, rng)
		for trial := range 4 {
			var events []FailureEvent
			for range rng.IntN(4) {
				var links []netsim.LinkID
				for id := range sets[rng.IntN(len(sets))] {
					links = append(links, id)
				}
				slices.Sort(links)
				// From a day before the window to a day after it.
				at := start.Add(time.Duration(rng.IntN(96)-24) * time.Hour)
				events = append(events, FailureEvent{At: at, Links: links, Label: "trial"})
			}
			cfg := StreamConfig{
				Start: start, End: end,
				Collectors:   []netsim.ASN{w.ASes[rng.IntN(len(w.ASes))].ASN, w.ASes[0].ASN},
				NoisePerHour: 6, Seed: rng.Uint64(),
			}
			got, err := GenerateStream(NewTables(w), events, cfg)
			want, refErr := refGenerateStream(w, events, cfg)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("world %d, trial %d: error %v, reference %v", i, trial, err, refErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d, trial %d: stream of %d messages differs from the reference's %d", i, trial, len(got), len(want))
			}
		}
	}
}

// TestTablesBuildEachSetOnce requires the memo to return one table per
// distinct set of failed links, whatever map holds the set.
func TestTablesBuildEachSetOnce(t *testing.T) {
	w := testWorld(t)
	tables := NewTables(w)
	a, b := w.IPLinks[0].ID, w.IPLinks[1].ID
	healthy := tables.Table(nil)
	if tables.Table(map[netsim.LinkID]bool{}) != healthy || tables.Table(map[netsim.LinkID]bool{a: false}) != healthy {
		t.Error("an empty failed set must reuse the healthy table")
	}
	failed := map[netsim.LinkID]bool{a: true}
	one := tables.Table(failed)
	if one == healthy {
		t.Fatal("a failed link must build a new table")
	}
	failed[b] = true
	two := tables.Table(failed)
	if two == one {
		t.Fatal("adding to the map must build a new table")
	}
	if tables.Table(map[netsim.LinkID]bool{b: true, a: true}) != two || tables.Table(map[netsim.LinkID]bool{a: true}) != one {
		t.Error("a set seen before must reuse its table")
	}
	other := map[netsim.LinkID]bool{b: true}
	if tables.Table(other) == one {
		t.Error("a different set of the same size must build its own table")
	}
	if len(tables.built) != 4 {
		t.Errorf("built %d tables, want 4", len(tables.built))
	}
	for _, set := range []map[netsim.LinkID]bool{nil, {a: true}, failed, other} {
		if !reflect.DeepEqual(tables.Table(set), ComputeTable(w, set)) {
			t.Errorf("memoized table of %v differs from ComputeTable", set)
		}
	}
}

// TestGenerateStreamKeepsTieOrder requires GenerateStream to order
// messages of equal time as the reference's stable sort does: failure
// messages before churn, churn in draw order. Windows of a few
// nanoseconds put many churn draws on one instant, and events on those
// instants; the test requires both kinds of tie to occur.
func TestGenerateStreamKeepsTieOrder(t *testing.T) {
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	var mixedTies, churnTies int
	for i, w := range refWorlds(t, false) {
		sets := randomFailures(w, rand.New(rand.NewPCG(uint64(i), 5)))
		for _, window := range []time.Duration{1, 4, 9} {
			var events []FailureEvent
			for k, set := range sets[2:] {
				var links []netsim.LinkID
				for id := range set {
					links = append(links, id)
				}
				slices.Sort(links)
				events = append(events, FailureEvent{At: start.Add(time.Duration(k) * window / 3), Links: links, Label: "tie"})
			}
			cfg := StreamConfig{
				Start: start, End: start.Add(window),
				Collectors: []netsim.ASN{w.ASes[0].ASN, w.ASes[1].ASN},
				// About 40 draws per nanosecond of window.
				NoisePerHour: 40 * float64(time.Hour), Seed: uint64(window),
			}
			got, err := GenerateStream(NewTables(w), events, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refGenerateStream(w, events, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d, %v window: stream of %d messages differs from the reference's %d", i, window, len(got), len(want))
			}
			churn, _ := GenerateStream(NewTables(w), nil, cfg)
			quiet := cfg
			quiet.NoisePerHour = 0
			failure, _ := GenerateStream(NewTables(w), events, quiet)
			perInstant := map[time.Time]int{}
			for _, m := range churn {
				perInstant[m.Time]++
			}
			for at, n := range perInstant {
				if n > 1 {
					churnTies++
				}
				if slices.ContainsFunc(failure, func(m Message) bool { return m.Time.Equal(at) }) {
					mixedTies++
				}
			}
		}
	}
	if mixedTies == 0 || churnTies == 0 {
		t.Errorf("%d instants hold failure and churn messages and %d several churn messages; want both", mixedTies, churnTies)
	}
}
