package nautilus

import (
	"slices"
	"strings"
	"testing"

	"arachnet/internal/geo"
	"arachnet/internal/netsim"
)

func TestCatalogWellFormed(t *testing.T) {
	cat := BuildCatalog()
	if cat.Len() < 30 {
		t.Fatalf("catalog too small: %d cables", cat.Len())
	}
	seen := map[CableID]bool{}
	for _, c := range cat.Cables() {
		if seen[c.ID] {
			t.Errorf("duplicate cable %s", c.ID)
		}
		seen[c.ID] = true
		if len(c.Landings) < 2 {
			t.Errorf("%s: fewer than 2 landings", c.ID)
		}
		if c.Name == "" || c.RFS < 1990 || c.RFS > 2026 {
			t.Errorf("%s: bad metadata %q %d", c.ID, c.Name, c.RFS)
		}
		for _, lpt := range c.Landings {
			if _, ok := geo.CountryByCode(lpt.Country); !ok {
				t.Errorf("%s: unknown landing country %s", c.ID, lpt.Country)
			}
			if !lpt.Loc.Valid() {
				t.Errorf("%s: invalid landing coord %v", c.ID, lpt.Loc)
			}
		}
		if c.LengthKm() <= 0 {
			t.Errorf("%s: non-positive length", c.ID)
		}
	}
}

func TestSegmentKm(t *testing.T) {
	cat := BuildCatalog()
	c, ok := cat.ByID("seamewe-5")
	if !ok {
		t.Fatal("seamewe-5 missing")
	}
	// Segment distance is symmetric and monotone in span.
	if c.SegmentKm(0, 3) != c.SegmentKm(3, 0) {
		t.Error("SegmentKm not symmetric")
	}
	if c.SegmentKm(0, 2) >= c.SegmentKm(0, 5) {
		t.Error("SegmentKm not monotone with span")
	}
	if c.SegmentKm(2, 2) != 0 {
		t.Error("zero-span segment must be 0")
	}
	// SeaMeWe-5 France→Singapore should be in the 15,000–30,000 km range.
	total := c.LengthKm()
	if total < 15000 || total > 30000 {
		t.Errorf("SeaMeWe-5 length = %.0f km, implausible", total)
	}
}

func TestByNameResolution(t *testing.T) {
	cat := BuildCatalog()
	for _, q := range []string{"SeaMeWe-5", "seamewe-5", "SEAMEWE5", "sea me we 5"} {
		c, ok := cat.ByName(q)
		if !ok || c.ID != "seamewe-5" {
			t.Errorf("ByName(%q) = %v,%v", q, c.ID, ok)
		}
	}
	if c, ok := cat.ByName("AAE-1"); !ok || c.ID != "aae-1" {
		t.Errorf("ByName(AAE-1) = %v,%v", c.ID, ok)
	}
	if c, ok := cat.ByName("falcon"); !ok || c.ID != "falcon" {
		t.Errorf("ByName(falcon) = %v,%v", c.ID, ok)
	}
	if _, ok := cat.ByName("atlantis-9"); ok {
		t.Error("unknown cable resolved")
	}
}

func TestLandingIn(t *testing.T) {
	cat := BuildCatalog()
	eg := cat.LandingIn("EG")
	if len(eg) < 5 {
		t.Errorf("Egypt should land many cables, got %d", len(eg))
	}
	found := false
	for _, id := range eg {
		if id == "seamewe-5" {
			found = true
		}
	}
	if !found {
		t.Error("SeaMeWe-5 should land in Egypt")
	}
	if got := cat.LandingIn("KZ"); len(got) != 0 {
		t.Errorf("landlocked Kazakhstan lands cables: %v", got)
	}
}

func TestBetweenRegions(t *testing.T) {
	cat := BuildCatalog()
	ea := cat.Between(geo.Europe, geo.Asia)
	if len(ea) < 4 {
		t.Fatalf("Europe-Asia corridor too thin: %d cables", len(ea))
	}
	ids := map[CableID]bool{}
	for _, c := range ea {
		ids[c.ID] = true
	}
	for _, want := range []CableID{"seamewe-5", "seamewe-4", "aae-1", "flag-ea"} {
		if !ids[want] {
			t.Errorf("Europe-Asia corridor missing %s", want)
		}
	}
	// A transatlantic-only cable must not show up.
	if ids["marea"] {
		t.Error("MAREA wrongly in Europe-Asia corridor")
	}
}

func TestCableCountriesAndRegions(t *testing.T) {
	cat := BuildCatalog()
	c, _ := cat.ByID("marea")
	cs := c.Countries()
	if len(cs) != 2 || cs[0] != "US" || cs[1] != "ES" {
		t.Errorf("MAREA countries = %v", cs)
	}
	if !c.LandsIn("US") || c.LandsIn("FR") {
		t.Error("LandsIn wrong for MAREA")
	}
	regs := c.Regions()
	if len(regs) != 2 {
		t.Errorf("MAREA regions = %v", regs)
	}
}

func testWorld(t testing.TB) *netsim.World {
	t.Helper()
	w, err := netsim.Generate(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMapWorld(t *testing.T) {
	w := testWorld(t)
	cat := BuildCatalog()
	m, err := MapWorld(w, cat)
	if err != nil {
		t.Fatal(err)
	}
	if cov := m.Coverage(w); cov < 0.6 {
		t.Errorf("mapping coverage = %.2f, want >= 0.6", cov)
	}
	for id, ms := range m.LinkCables {
		if len(ms) == 0 {
			t.Fatalf("link %d mapped with zero candidates", id)
		}
		for i, cm := range ms {
			if cm.Confidence < 0 || cm.Confidence > 1 {
				t.Errorf("link %d candidate %s confidence %f out of range", id, cm.Cable, cm.Confidence)
			}
			if i > 0 && ms[i-1].Confidence < cm.Confidence {
				t.Errorf("link %d candidates not sorted", id)
			}
			if cm.SegmentKm <= 0 {
				t.Errorf("link %d candidate %s has no segment", id, cm.Cable)
			}
		}
	}
}

func TestMapWorldInverseIndexConsistent(t *testing.T) {
	w := testWorld(t)
	m, err := MapWorld(w, BuildCatalog())
	if err != nil {
		t.Fatal(err)
	}
	for cid, links := range m.CableLinks {
		for _, id := range links {
			best, ok := m.BestCable(id)
			if !ok || best.Cable != cid {
				t.Errorf("cable %s claims link %d but best is %v", cid, id, best.Cable)
			}
		}
	}
	// Every mapped link appears in exactly one cable's list.
	count := map[netsim.LinkID]int{}
	for _, links := range m.CableLinks {
		for _, id := range links {
			count[id]++
		}
	}
	for _, id := range m.MappedLinks() {
		if count[id] != 1 {
			t.Errorf("link %d appears in %d cable lists", id, count[id])
		}
	}
}

func TestMapWorldGeographicPlausibility(t *testing.T) {
	w := testWorld(t)
	m, err := MapWorld(w, BuildCatalog())
	if err != nil {
		t.Fatal(err)
	}
	cat := BuildCatalog()
	for _, id := range m.MappedLinks() {
		best, _ := m.BestCable(id)
		l, _ := w.LinkByID(id)
		ra, _ := w.RouterByID(l.A)
		rb, _ := w.RouterByID(l.B)
		c, _ := cat.ByID(best.Cable)
		// The claimed landings must be within the shore-distance bound of
		// the routers (either orientation).
		dA := geo.DistanceKm(best.LandingA.Loc, ra.Loc)
		dB := geo.DistanceKm(best.LandingB.Loc, rb.Loc)
		if dA > maxShoreDistanceKm || dB > maxShoreDistanceKm {
			t.Errorf("link %d→%s: landing too far (%.0f, %.0f km)", id, c.ID, dA, dB)
		}
	}
}

func TestGBLinksMapToGBCables(t *testing.T) {
	w := testWorld(t)
	m, err := MapWorld(w, BuildCatalog())
	if err != nil {
		t.Fatal(err)
	}
	cat := BuildCatalog()
	for _, l := range w.SubmarineLinks() {
		a, b := w.LinkEndpoints(l)
		if a != "GB" && b != "GB" {
			continue
		}
		best, ok := m.BestCable(l.ID)
		if !ok {
			continue
		}
		c, _ := cat.ByID(best.Cable)
		// A GB-terminating link must map to a cable with a GB-proximate
		// landing (GB itself, or a near-shore neighbor like IE/FR/NL/BE).
		near := false
		for _, cc := range c.Countries() {
			switch cc {
			case "GB", "IE", "FR", "NL", "BE", "DK", "DE", "NO", "PT", "ES":
				near = true
			}
		}
		if !near {
			t.Errorf("GB link %d mapped to far cable %s (%v)", l.ID, c.ID, c.Countries())
		}
	}
}

func TestValidateSoL(t *testing.T) {
	w := testWorld(t)
	m, err := MapWorld(w, BuildCatalog())
	if err != nil {
		t.Fatal(err)
	}
	// With a generous tolerance nothing should violate.
	if v := m.ValidateSoL(w, 0.05); len(v) != 0 {
		t.Errorf("unexpected SoL violations at tolerance 0.05: %d", len(v))
	}
	// With an absurd tolerance (>1) everything mapped must violate or the
	// check is vacuous.
	if v := m.ValidateSoL(w, 10); len(v) == 0 && len(m.LinkCables) > 0 {
		t.Error("SoL check vacuous: no violations at tolerance 10")
	}
}

func TestMapWorldNilArgs(t *testing.T) {
	if _, err := MapWorld(nil, BuildCatalog()); err == nil {
		t.Error("want error for nil world")
	}
	w := testWorld(t)
	if _, err := MapWorld(w, nil); err == nil {
		t.Error("want error for nil catalog")
	}
}

func TestPathConsistency(t *testing.T) {
	if pathConsistency(1000, 1000) != 1 {
		t.Error("equal distances must give 1")
	}
	if got := pathConsistency(500, 1000); got != 0.5 {
		t.Errorf("pathConsistency(500,1000) = %f", got)
	}
	if got := pathConsistency(1000, 500); got != 0.5 {
		t.Errorf("pathConsistency(1000,500) = %f", got)
	}
	if pathConsistency(0, 100) != 0 || pathConsistency(100, 0) != 0 {
		t.Error("degenerate distances must give 0")
	}
}

func BenchmarkMapWorld(b *testing.B) {
	w := testWorld(b)
	cat := BuildCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MapWorld(w, cat); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMentioned checks the catalog automaton against a strings.Contains
// scan of every cable form in the normalized text, on lowered texts
// naming each cable alone, cables in pairs, no cable, and the empty
// text.
func TestMentioned(t *testing.T) {
	cat := BuildCatalog()
	want := func(lower string) []CableID {
		norm := NormalizeName(lower)
		var out []CableID
		for i, n := range cat.names {
			if containsNonEmpty(norm, n.name) || containsNonEmpty(norm, n.id) || containsNonEmpty(norm, n.short) {
				out = append(out, cat.cables[i].ID)
			}
		}
		return out
	}
	texts := []string{"", "identify the impact at a country level due to seamewe-5 cable failure", "no cable here", "sea-me-we 5, café"}
	for i, c := range cat.cables {
		texts = append(texts, strings.ToLower("the "+c.Name+" cable"), strings.ToLower(string(c.ID)),
			strings.ToLower(c.Name+" and "+cat.cables[(i+7)%len(cat.cables)].Name))
	}
	for _, lower := range texts {
		if got, want := cat.Mentioned(lower), want(lower); !slices.Equal(got, want) {
			t.Errorf("Mentioned(%q) = %v, want %v", lower, got, want)
		}
	}
	// The catalog automaton and nlq's vocabulary automaton together
	// stay within 32 KiB; this one is allowed half.
	if size := cat.forms.Size(); size > 16<<10 {
		t.Errorf("catalog automaton holds %d bytes, budget %d", size, 16<<10)
	}
}

func BenchmarkBuildCatalog(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		BuildCatalog()
	}
}
