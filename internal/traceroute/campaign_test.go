package traceroute

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/netsim"
)

// refWorlds are the worlds the reference comparisons run over: six
// small worlds and, unless the run is -short, two full-size ones.
func refWorlds(t *testing.T) []*netsim.World {
	t.Helper()
	var cfgs []netsim.Config
	for seed := uint64(1); seed <= 6; seed++ {
		cfgs = append(cfgs, netsim.SmallConfig(seed))
	}
	if !testing.Short() {
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

// outsideEveryPrefix is a destination no world prefix covers.
var outsideEveryPrefix = netip.MustParseAddr("192.0.2.1")

// randomProbe draws a probe between two random routers; one probe in
// sixteen has an unknown source and one a destination outside every
// prefix.
func randomProbe(w *netsim.World, rng *rand.Rand, i int) Probe {
	p := Probe{
		Name: fmt.Sprintf("p%d", i),
		Src:  w.Routers[rng.IntN(len(w.Routers))].ID,
		Dst:  w.Routers[rng.IntN(len(w.Routers))].Addr,
	}
	switch rng.IntN(16) {
	case 0:
		p.Src = 1 << 30
	case 1:
		p.Dst = outsideEveryPrefix
	}
	return p
}

// isolating returns every inter-AS link of the AS originating dst:
// failing them makes the destination unreachable.
func isolating(w *netsim.World, dst netip.Addr) []netsim.LinkID {
	as, _ := w.OriginOf(dst)
	var out []netsim.LinkID
	for _, l := range w.IPLinks {
		if !l.IntraAS && (l.ASLinkAB[0] == as || l.ASLinkAB[1] == as) {
			out = append(out, l.ID)
		}
	}
	return out
}

// partitioning returns every intra-AS link of the AS originating dst:
// failing them cuts the destination off inside its own AS, so a trace
// toward it dies after entering the AS.
func partitioning(w *netsim.World, dst netip.Addr) []netsim.LinkID {
	as, _ := w.OriginOf(dst)
	var out []netsim.LinkID
	for _, l := range w.IPLinks {
		if l.IntraAS && l.ASLinkAB[0] == as {
			out = append(out, l.ID)
		}
	}
	return out
}

// randomLinks returns n random links of w.
func randomLinks(w *netsim.World, rng *rand.Rand, n int) []netsim.LinkID {
	out := make([]netsim.LinkID, n)
	for i := range out {
		out[i] = w.IPLinks[rng.IntN(len(w.IPLinks))].ID
	}
	return out
}

// requireSamePath fails t unless got equals want, RTTs compared bit
// for bit.
func requireSamePath(t *testing.T, label string, got, want Path) {
	t.Helper()
	same := reflect.DeepEqual(got, want) && math.Float64bits(got.RTTms) == math.Float64bits(want.RTTms)
	for i := 0; same && i < len(got.Hops); i++ {
		same = math.Float64bits(got.Hops[i].RTTms) == math.Float64bits(want.Hops[i].RTTms)
	}
	if !same {
		t.Fatalf("%s: path differs from the reference\n got %+v\nwant %+v", label, got, want)
	}
}

// requireSameCampaign fails t unless RunCampaign and the reference give
// the same archive, RTTs compared bit for bit, or the same error. It
// returns the archive.
func requireSameCampaign(t *testing.T, label string, w *netsim.World, c Campaign) *Archive {
	t.Helper()
	got, err := RunCampaign(bgp.NewTables(w), c)
	want, refErr := refRunCampaign(w, c)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: error %v, reference %v", label, err, refErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: archive differs from the reference", label)
	}
	if got == nil {
		return nil
	}
	for i, m := range got.Measurements {
		if math.Float64bits(m.RTTms) != math.Float64bits(want.Measurements[i].RTTms) {
			t.Fatalf("%s: measurement %d RTT %v, reference %v", label, i, m.RTTms, want.Measurements[i].RTTms)
		}
	}
	return got
}

// TestTraceMatchesReference traces random probes, unknown sources and
// destinations outside every prefix included, over the healthy world
// and random failure sets, and requires the reference's paths.
func TestTraceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for i, w := range refWorlds(t) {
		failures := []map[netsim.LinkID]bool{nil}
		for _, n := range []int{2, 20} {
			set := map[netsim.LinkID]bool{}
			for _, id := range randomLinks(w, rng, n) {
				set[id] = true
			}
			failures = append(failures, set)
		}
		for j, failed := range failures {
			table := bgp.ComputeTable(w, failed)
			p, ref := NewProber(w), &refProber{w: w}
			for k := range 40 {
				pr := randomProbe(w, rng, k)
				seed := rng.Uint64()
				got, err := p.Trace(table, failed, pr.Src, pr.Dst, seed)
				want, refErr := ref.Trace(table, failed, pr.Src, pr.Dst, seed)
				label := fmt.Sprintf("world %d, failure set %d, probe %+v", i, j, pr)
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: error %v, reference %v", label, err, refErr)
				}
				requireSamePath(t, label, got, want)
			}
		}
	}
}

// TestTraceMatchesReferenceOnTies gives every intra-AS link of two
// small worlds one length, so a walk inside an AS meets routers at
// equal distances, and requires the reference's paths: the walk must
// break those ties by router ID as the reference does.
func TestTraceMatchesReferenceOnTies(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for _, seed := range []uint64{3, 7} {
		w, err := netsim.Generate(netsim.SmallConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.IPLinks {
			if w.IPLinks[i].IntraAS {
				w.IPLinks[i].DistKm = 100
			}
		}
		failed := map[netsim.LinkID]bool{}
		for _, id := range randomLinks(w, rng, 6) {
			failed[id] = true
		}
		for _, f := range []map[netsim.LinkID]bool{nil, failed} {
			table := bgp.ComputeTable(w, f)
			p, ref := NewProber(w), &refProber{w: w}
			for k := range 60 {
				pr := randomProbe(w, rng, k)
				got, err := p.Trace(table, f, pr.Src, pr.Dst, uint64(k))
				want, refErr := ref.Trace(table, f, pr.Src, pr.Dst, uint64(k))
				label := fmt.Sprintf("world %d, probe %+v", seed, pr)
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: error %v, reference %v", label, err, refErr)
				}
				requireSamePath(t, label, got, want)
			}
		}
	}
}

// TestCampaignMatchesReference runs campaigns with 37-minute, hourly
// and two-hourly ticks and up to three events, before the window,
// inside it (on a tick and between ticks) and after it, some isolating
// a probe's destination or cutting it off inside its AS, and requires
// the reference's archive. The campaigns must include reached probes,
// probes without a route and probes whose path dies on the way.
func TestCampaignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	var reached, noRoute, diedOnTheWay int
	for i, w := range refWorlds(t) {
		window := 48 * time.Hour
		if len(w.Routers) > 500 {
			window = 12 * time.Hour // full-size worlds trace slowly
		}
		for _, interval := range []time.Duration{37 * time.Minute, time.Hour, 2 * time.Hour} {
			c := Campaign{Start: start, End: start.Add(window), Interval: interval, Seed: rng.Uint64()}
			for k := range 2 + rng.IntN(5) {
				pr := randomProbe(w, rng, k)
				if rng.IntN(4) == 0 {
					pr.Dst = w.Routers[rng.IntN(len(w.Routers))].Addr
				}
				c.Probes = append(c.Probes, pr)
			}
			for range rng.IntN(4) {
				// Tick-aligned or not, from a quarter window before
				// Start to a quarter window after End.
				at := start.Add(time.Duration(rng.Int64N(int64(window*3/2))) - window/4)
				if rng.IntN(2) == 0 {
					at = start.Add(time.Duration(rng.IntN(int(window/interval))) * interval)
				}
				dst := c.Probes[rng.IntN(len(c.Probes))].Dst
				var links []netsim.LinkID
				switch rng.IntN(3) {
				case 0:
					links = randomLinks(w, rng, 1+rng.IntN(8))
				case 1:
					links = isolating(w, dst)
				default:
					links = partitioning(w, dst)
				}
				c.Events = append(c.Events, bgp.FailureEvent{At: at, Links: links, Label: "trial"})
			}
			arch := requireSameCampaign(t, fmt.Sprintf("world %d, interval %v", i, interval), w, c)
			if arch == nil {
				continue
			}
			for _, m := range arch.Measurements {
				switch {
				case m.Reached:
					reached++
				case m.HopASNs == nil:
					noRoute++
				default:
					diedOnTheWay++
				}
			}
		}
	}
	if reached == 0 || noRoute == 0 || diedOnTheWay == 0 {
		t.Errorf("campaigns measured %d reached probes, %d without a route and %d that died on the way; want each",
			reached, noRoute, diedOnTheWay)
	}
}

// FuzzCampaign decodes a campaign over the small test world, built
// once, and requires RunCampaign to equal the reference bit for bit,
// errors included. Each probe takes three bytes of probes: source,
// destination and name, where the last source is unknown and the last
// destination lies outside every prefix. Each event takes three bytes
// of events: its time in quarter ticks from Start (negative before it),
// whether its links are drawn from the link list, isolate a probe's
// destination or cut it off inside its AS, and which links or probe. span is the window in
// quarter ticks, so a window may end on a tick or between two, and
// interval is in minutes, where zero is an invalid campaign.
func FuzzCampaign(f *testing.F) {
	w, err := netsim.Generate(netsim.SmallConfig(7))
	if err != nil {
		f.Fatal(err)
	}
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	// Hourly, two probes, the second isolated by an event on tick 4.
	f.Add([]byte{1, 40, 0, 2, 50, 1}, []byte{16, 1, 1}, uint16(60), uint8(48), uint64(1))
	// 37-minute ticks, events before Start, between ticks and after End.
	f.Add([]byte{3, 20, 0, 9, 30, 1, 200, 5, 2}, []byte{0x80, 0, 7, 6, 0, 3, 120, 1, 0}, uint16(37), uint8(50), uint64(9))
	// Two-hourly, an unknown source.
	f.Add([]byte{255, 10, 0}, []byte{}, uint16(120), uint8(40), uint64(3))
	// A destination cut off inside its AS from the window's first tick.
	f.Add([]byte{0, 60, 0, 7, 33, 1}, []byte{0, 2, 1, 12, 2, 0}, uint16(60), uint8(40), uint64(6))
	// A destination outside every prefix, and a zero interval.
	f.Add([]byte{4, 255, 0}, []byte{4, 1, 0}, uint16(60), uint8(8), uint64(4))
	f.Add([]byte{4, 12, 0}, []byte{}, uint16(0), uint8(8), uint64(5))
	f.Fuzz(func(t *testing.T, probes, events []byte, interval uint16, span uint8, seed uint64) {
		c := Campaign{Start: start, Interval: time.Duration(interval%241) * time.Minute, Seed: seed}
		c.End = start.Add(time.Duration(span) * c.Interval / 4)
		for i := 0; i+3 <= len(probes) && len(c.Probes) < 6; i += 3 {
			pr := Probe{Name: fmt.Sprintf("p%d", probes[i+2]%4)}
			if s := int(probes[i]); s < 255 {
				pr.Src = w.Routers[s%len(w.Routers)].ID
			} else {
				pr.Src = 1 << 30
			}
			if d := int(probes[i+1]); d < 255 {
				pr.Dst = w.Routers[d%len(w.Routers)].Addr
			} else {
				pr.Dst = outsideEveryPrefix
			}
			c.Probes = append(c.Probes, pr)
		}
		for i := 0; i+3 <= len(events) && len(c.Events) < 3; i += 3 {
			ev := bgp.FailureEvent{At: start.Add(time.Duration(int8(events[i])) * c.Interval / 4), Label: "fuzz"}
			sel := events[i+2]
			switch mode := events[i+1] % 3; {
			case mode == 1 && len(c.Probes) > 0:
				ev.Links = isolating(w, c.Probes[int(sel)%len(c.Probes)].Dst)
			case mode == 2 && len(c.Probes) > 0:
				ev.Links = partitioning(w, c.Probes[int(sel)%len(c.Probes)].Dst)
			default:
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], seed^uint64(sel))
				for _, x := range b[:1+sel%8] {
					ev.Links = append(ev.Links, w.IPLinks[int(x)*len(w.IPLinks)/256].ID)
				}
			}
			c.Events = append(c.Events, ev)
		}
		requireSameCampaign(t, fmt.Sprintf("%+v", c), w, c)
	})
}
