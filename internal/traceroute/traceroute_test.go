package traceroute

import (
	"testing"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/netsim"
	"arachnet/internal/stats"
)

func testWorld(t testing.TB) *netsim.World {
	t.Helper()
	w, err := netsim.Generate(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// pickEndpoints returns a source router in GB and a destination address
// in SG, giving a long intercontinental path.
func pickEndpoints(t testing.TB, w *netsim.World) (netsim.RouterID, netsim.Router) {
	t.Helper()
	var src netsim.RouterID
	var dst netsim.Router
	for _, a := range w.ASes {
		if a.Tier == netsim.Stub && a.Home == "GB" && src == 0 {
			src = w.RoutersOf(a.ASN)[0]
		}
		if a.Tier == netsim.Stub && a.Home == "SG" && dst.ID == 0 {
			r, _ := w.RouterByID(w.RoutersOf(a.ASN)[0])
			dst = r
		}
	}
	if src == 0 || dst.ID == 0 {
		t.Fatal("could not find GB/SG stubs")
	}
	return src, dst
}

func TestTraceReachesDestination(t *testing.T) {
	w := testWorld(t)
	src, dst := pickEndpoints(t, w)
	table := bgp.ComputeTable(w, nil)
	p := NewProber(w)
	path, err := p.Trace(table, nil, src, dst.Addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !path.Reached {
		t.Fatal("GB→SG trace did not reach")
	}
	if len(path.Hops) < 3 {
		t.Errorf("implausibly short path: %d hops", len(path.Hops))
	}
	// RTT monotone along hops.
	for i := 1; i < len(path.Hops); i++ {
		if path.Hops[i].RTTms+0.5 < path.Hops[i-1].RTTms {
			t.Errorf("RTT regressed at hop %d: %.2f < %.2f", i, path.Hops[i].RTTms, path.Hops[i-1].RTTms)
		}
	}
	// Intercontinental RTT must be physically plausible: > 60ms (light
	// over ~10,000 km round trip with stretch), < 600ms.
	if path.RTTms < 60 || path.RTTms > 600 {
		t.Errorf("GB→SG RTT = %.1f ms, implausible", path.RTTms)
	}
	// First hop is the source, last hop belongs to the destination AS.
	first, _ := w.RouterByID(src)
	if path.Hops[0].Router != src || path.Hops[0].ASN != first.ASN {
		t.Error("first hop is not the source router")
	}
	if path.Hops[len(path.Hops)-1].ASN != dst.ASN {
		t.Errorf("last hop AS %d, want %d", path.Hops[len(path.Hops)-1].ASN, dst.ASN)
	}
}

func TestTraceFollowsBGPPath(t *testing.T) {
	w := testWorld(t)
	src, dst := pickEndpoints(t, w)
	table := bgp.ComputeTable(w, nil)
	p := NewProber(w)
	path, err := p.Trace(table, nil, src, dst.Addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcR, _ := w.RouterByID(src)
	route, _ := table.Route(srcR.ASN, dst.ASN)
	// The AS sequence of the hops must equal the BGP path.
	var asSeq []netsim.ASN
	for _, h := range path.Hops {
		if len(asSeq) == 0 || asSeq[len(asSeq)-1] != h.ASN {
			asSeq = append(asSeq, h.ASN)
		}
	}
	if !bgp.PathEqual(asSeq, route.Path) {
		t.Errorf("hop AS sequence %v != BGP path %v", asSeq, route.Path)
	}
}

func TestTraceErrors(t *testing.T) {
	w := testWorld(t)
	table := bgp.ComputeTable(w, nil)
	p := NewProber(w)
	if _, err := p.Trace(table, nil, 999999, w.Routers[0].Addr, 1); err == nil {
		t.Error("unknown source must error")
	}
	bad := w.Routers[0].Addr
	if _, err := p.Trace(table, nil, w.Routers[0].ID, bad, 1); err != nil {
		t.Errorf("valid trace errored: %v", err)
	}
}

func TestTraceUnreachableAfterIsolation(t *testing.T) {
	w := testWorld(t)
	src, dst := pickEndpoints(t, w)
	// Kill every inter-AS link of the destination AS.
	failed := map[netsim.LinkID]bool{}
	for _, l := range w.IPLinks {
		if l.IntraAS {
			continue
		}
		if l.ASLinkAB[0] == dst.ASN || l.ASLinkAB[1] == dst.ASN {
			failed[l.ID] = true
		}
	}
	table := bgp.ComputeTable(w, failed)
	p := NewProber(w)
	path, err := p.Trace(table, failed, src, dst.Addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if path.Reached {
		t.Error("trace reached an isolated AS")
	}
}

func campaignWindow() (time.Time, time.Time) {
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	return start, start.Add(48 * time.Hour)
}

func TestRunCampaignLatencyShiftOnFailure(t *testing.T) {
	w := testWorld(t)
	src, dst := pickEndpoints(t, w)
	start, end := campaignWindow()

	// Fail the best submarine link on the current GB→SG path at T+24h.
	table := bgp.ComputeTable(w, nil)
	p := NewProber(w)
	before, err := p.Trace(table, nil, src, dst.Addr, 1)
	if err != nil || !before.Reached {
		t.Fatalf("baseline trace failed: %v", err)
	}
	// Find a submarine link between consecutive hops. Prefer inter-AS
	// links so the failure triggers a BGP-level reroute rather than an
	// intra-AS detour.
	var victim, intraVictim netsim.LinkID
	for i := 0; i+1 < len(before.Hops); i++ {
		for _, lid := range w.LinksAt(before.Hops[i].Router) {
			l, _ := w.LinkByID(lid)
			if l.Kind != netsim.LinkSubmarine {
				continue
			}
			if (l.A == before.Hops[i].Router && l.B == before.Hops[i+1].Router) ||
				(l.B == before.Hops[i].Router && l.A == before.Hops[i+1].Router) {
				if l.IntraAS {
					intraVictim = l.ID
				} else {
					victim = l.ID
				}
			}
		}
	}
	if victim == 0 {
		victim = intraVictim
	}
	if victim == 0 {
		t.Skip("no submarine link on baseline path for this seed")
	}

	camp := Campaign{
		Probes:   []Probe{{Name: "gb-sg", Src: src, Dst: dst.Addr}},
		Start:    start,
		End:      end,
		Interval: time.Hour,
		Events:   []bgp.FailureEvent{{At: start.Add(24 * time.Hour), Links: []netsim.LinkID{victim}, Label: "victim"}},
		Seed:     9,
	}
	arch, err := RunCampaign(bgp.NewTables(w), camp)
	if err != nil {
		t.Fatal(err)
	}
	times, rtts := arch.Series("gb-sg")
	if len(rtts) < 40 {
		t.Fatalf("series too short: %d", len(rtts))
	}
	// Split at the event: RTT after must differ from before (reroute).
	var pre, post []float64
	for i, ts := range times {
		if ts.Before(camp.Events[0].At) {
			pre = append(pre, rtts[i])
		} else {
			post = append(post, rtts[i])
		}
	}
	if len(pre) == 0 || len(post) == 0 {
		t.Fatal("event did not split the series")
	}
	if diff := stats.Mean(post) - stats.Mean(pre); diff <= 0.5 {
		t.Errorf("no latency increase after failure: Δ=%.2f ms", diff)
	}
}

func TestRunCampaignDeterministic(t *testing.T) {
	w := testWorld(t)
	src, dst := pickEndpoints(t, w)
	start, end := campaignWindow()
	camp := Campaign{
		Probes: []Probe{{Name: "p", Src: src, Dst: dst.Addr}},
		Start:  start, End: end, Interval: 2 * time.Hour, Seed: 4,
	}
	a1, err := RunCampaign(bgp.NewTables(w), camp)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RunCampaign(bgp.NewTables(w), camp)
	if err != nil {
		t.Fatal(err)
	}
	_, r1 := a1.Series("p")
	_, r2 := a2.Series("p")
	if len(r1) != len(r2) {
		t.Fatal("series lengths differ")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("sample %d differs: %f vs %f", i, r1[i], r2[i])
		}
	}
}

func TestRunCampaignValidation(t *testing.T) {
	w := testWorld(t)
	start, end := campaignWindow()
	if _, err := RunCampaign(bgp.NewTables(w), Campaign{Start: start, End: end, Interval: time.Hour}); err == nil {
		t.Error("no probes must error")
	}
	pr := Probe{Name: "x", Src: w.Routers[0].ID, Dst: w.Routers[0].Addr}
	if _, err := RunCampaign(bgp.NewTables(w), Campaign{Probes: []Probe{pr}, Start: end, End: start, Interval: time.Hour}); err == nil {
		t.Error("inverted window must error")
	}
	if _, err := RunCampaign(bgp.NewTables(w), Campaign{Probes: []Probe{pr}, Start: start, End: end, Interval: 0}); err == nil {
		t.Error("zero interval must error")
	}
}

func TestArchiveHelpers(t *testing.T) {
	w := testWorld(t)
	src, dst := pickEndpoints(t, w)
	start, _ := campaignWindow()
	camp := Campaign{
		Probes: []Probe{{Name: "b", Src: src, Dst: dst.Addr}, {Name: "a", Src: src, Dst: dst.Addr}},
		Start:  start, End: start.Add(6 * time.Hour), Interval: time.Hour, Seed: 2,
	}
	arch, err := RunCampaign(bgp.NewTables(w), camp)
	if err != nil {
		t.Fatal(err)
	}
	probes := arch.Probes()
	if len(probes) != 2 || probes[0] != "a" || probes[1] != "b" {
		t.Errorf("Probes() = %v", probes)
	}
	if lr := arch.LossRate("a"); lr != 0 {
		t.Errorf("healthy campaign loss rate = %f", lr)
	}
	if lr := arch.LossRate("nonexistent"); lr != 0 {
		t.Errorf("unknown probe loss rate = %f", lr)
	}
}

func BenchmarkTrace(b *testing.B) {
	w := testWorld(b)
	src, dst := pickEndpoints(b, w)
	table := bgp.ComputeTable(w, nil)
	p := NewProber(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Trace(table, nil, src, dst.Addr, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignDay(b *testing.B) {
	w := testWorld(b)
	src, dst := pickEndpoints(b, w)
	start, _ := campaignWindow()
	camp := Campaign{
		Probes: []Probe{{Name: "p", Src: src, Dst: dst.Addr}},
		Start:  start, End: start.Add(24 * time.Hour), Interval: time.Hour, Seed: 3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCampaign(bgp.NewTables(w), camp); err != nil {
			b.Fatal(err)
		}
	}
}
