package core

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
	"arachnet/internal/registry"
	"arachnet/internal/topo"
	"arachnet/internal/traceroute"
	"arachnet/internal/xaminer"
)

// codecSamples holds one representative, fully-populated value per
// port-value tag. TestCodecRoundTrip fails if a tag has no sample, so
// growing the table forces growing this one.
func codecSamples() map[string]any {
	at := time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)
	ci := xaminer.CountryImpact{
		Country: "EG", LinksLost: 3.5, LinksTotal: 12, IPsLost: 140.25,
		IPsTotal: 800, ASesHit: 4, ASesTotal: 9, ASLinksLost: 2.5,
		ASLinksTot: 7, Score: 0.3125,
	}
	event := xaminer.Event{
		Name: "tohoku-offshore", Type: xaminer.Earthquake,
		Epicenter: geo.Coord{Lat: 38.3, Lng: 142.4}, RadiusKm: 500, Severity: 9.0,
	}
	return map[string]any{
		"string":   "SeaMeWe-5",
		"bool":     true,
		"int":      42,
		"float64":  0.1,
		"[]string": []string{"alpha", "beta"},

		"nautilus.CableID":   nautilus.CableID("SeaMeWe-5"),
		"[]nautilus.CableID": []nautilus.CableID{"SeaMeWe-5", "AAE-1"},
		"[]netsim.LinkID":    []netsim.LinkID{3, 77, 1024},
		"[]netip.Addr": []netip.Addr{
			netip.MustParseAddr("10.1.2.3"),
			netip.MustParseAddr("2001:db8::17"),
		},
		"[]core.GeoRow": []GeoRow{
			{Addr: netip.MustParseAddr("10.1.2.3"), Country: "EG"},
			{Addr: netip.MustParseAddr("10.9.8.7"), Country: "IN"},
		},
		"*xaminer.ImpactReport": &xaminer.ImpactReport{
			Scenario: "xaminer", FailedLinks: 9,
			Countries:           []xaminer.CountryImpact{ci},
			ReachabilityLossPct: 12.5,
		},
		"[]xaminer.Event": []xaminer.Event{event},
		"[]xaminer.EventImpact": []xaminer.EventImpact{{
			Event: event, FailProb: 0.1,
			RoutersAtRisk:     []netsim.RouterID{5, 9},
			LinksAtRisk:       []netsim.LinkID{11, 12},
			CablesAtRisk:      []nautilus.CableID{"APG"},
			ExpectedLinksLost: 1.2,
			Countries:         []xaminer.CountryImpact{ci},
		}},
		"xaminer.GlobalImpact": xaminer.GlobalImpact{
			Events: []string{"tohoku-offshore"}, ExpectedLinksLost: 4.5,
			Countries: []xaminer.CountryImpact{ci},
		},
		"[]bgp.Message": []bgp.Message{{
			Time: at, Collector: 64500, Type: bgp.Withdraw,
			Prefix: netip.MustParsePrefix("10.1.0.0/16"),
			Path:   []netsim.ASN{64500, 64501},
		}},
		"[]bgp.Burst": []bgp.Burst{{
			Start: at, Duration: 5 * time.Minute, Messages: 120,
			Withdrawals: 90, Score: 6.5,
			TopPrefixes: []string{"10.1.0.0/16"}, WithdrawHeavy: true,
		}},
		"*traceroute.Archive": &traceroute.Archive{
			Measurements: []traceroute.Measurement{{
				Probe: "eu-probe-1", Time: at, RTTms: 187.5, Reached: true,
				HopASNs: []netsim.ASN{64500, 64501},
			}},
		},
		"core.LatencyFinding": LatencyFinding{
			Detected: true, ShiftAt: at, Probes: []string{"eu-probe-1"},
			MeanBefore: 80, MeanAfter: 190, DeltaMs: 110, PValue: 0.001,
			Confidence: 0.9, LostProbes: []string{"eu-probe-2"},
		},
		"core.CascadeBundle": CascadeBundle{
			Cable: topo.CableCascade{
				Rounds:     [][]nautilus.CableID{{"SeaMeWe-5"}, {"AAE-1"}},
				Failed:     []nautilus.CableID{"AAE-1", "SeaMeWe-5"},
				FinalLoad:  map[nautilus.CableID]float64{"APG": 17.5},
				Overloaded: map[nautilus.CableID]float64{"AAE-1": 1.25},
			},
			Stress: topo.StressResult{
				Stress:   map[netsim.ASN]float64{64500: 0.5},
				Degraded: []netsim.ASN{64500},
				Waves:    [][]netsim.ASN{{64500}},
				Rounds:   1,
			},
		},
		"topo.StressResult": topo.StressResult{
			Stress:   map[netsim.ASN]float64{64500: 0.5, 64501: 0.25},
			Degraded: []netsim.ASN{64500},
			Waves:    [][]netsim.ASN{{64500}},
			Rounds:   2,
		},
		"[]core.CableSuspect": []CableSuspect{{
			Cable: "SeaMeWe-5", Score: 0.85, WithdrawalHits: 12,
			CorridorMatch: true, LinksCarried: 40,
		}},
		"core.Verdict": Verdict{
			CauseIsCableFailure: true, Cable: "SeaMeWe-5", Confidence: 0.87,
			StatisticalEvidence: 0.9, InfraEvidence: 0.85, RoutingEvidence: 0.8,
			Explanation: "withdrawal burst correlates with corridor cable",
		},
		"*core.Timeline": &Timeline{
			Entries: []TimelineEntry{
				{At: at, Layer: "cable", What: "SeaMeWe-5 failed"},
			},
			CablesFailed: 2, LinksLost: 40, ASesDegraded: 3,
			CascadeRounds: 2, TopCountries: []string{"EG", "IN"},
			BurstsDetected: 1,
		},
	}
}

// TestCodecRoundTrip is the table's property test: for every tag,
// value → envelope → JSON → envelope → value must be exact
// (reflect.DeepEqual), because scattered execution must be
// byte-identical to in-process execution and a restored snapshot to
// the live cache.
func TestCodecRoundTrip(t *testing.T) {
	samples := codecSamples()
	for _, p := range portTypes {
		tag := p.tag
		v, ok := samples[tag]
		if !ok {
			t.Errorf("port type %q has no sample — add one to codecSamples", tag)
			continue
		}
		pv, err := encodePortValue(v)
		if err != nil {
			t.Errorf("%s: encode: %v", tag, err)
			continue
		}
		if pv.Type != tag {
			t.Errorf("%s: encoded under tag %q", tag, pv.Type)
		}
		// Cross the wire for real: envelope → bytes → envelope.
		data, err := json.Marshal(pv)
		if err != nil {
			t.Fatalf("%s: marshal envelope: %v", tag, err)
		}
		var back PortValue
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal envelope: %v", tag, err)
		}
		got, err := decodePortValue(back)
		if err != nil {
			t.Errorf("%s: decode: %v", tag, err)
			continue
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%s: round trip drifted:\n got %#v\nwant %#v", tag, got, v)
		}
	}
	for tag := range samples {
		if portByTag[tag] == nil {
			t.Errorf("sample %q has no port type", tag)
		}
	}
}

// TestCodecTagsFrozen pins the tag set: snapshot files and the worker
// wire carry these strings, so renaming or dropping one breaks saved
// snapshots and fleets that mix binary versions.
func TestCodecTagsFrozen(t *testing.T) {
	want := []string{
		"*core.Timeline", "*traceroute.Archive", "*xaminer.ImpactReport",
		"[]bgp.Burst", "[]bgp.Message", "[]core.CableSuspect", "[]core.GeoRow",
		"[]nautilus.CableID", "[]netip.Addr", "[]netsim.LinkID", "[]string",
		"[]xaminer.Event", "[]xaminer.EventImpact", "bool", "core.CascadeBundle",
		"core.LatencyFinding", "core.Verdict", "float64", "int",
		"nautilus.CableID", "string", "topo.StressResult", "xaminer.GlobalImpact",
	}
	got := make([]string, 0, len(portTypes))
	for _, p := range portTypes {
		got = append(got, p.tag)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("port-value tags changed:\n got %q\nwant %q", got, want)
	}
}

// TestPortTypesCoverCatalog walks every port of every builtin
// capability: each DataType must name a table entry, or the step
// could neither cross the worker wire nor survive a snapshot.
func TestPortTypesCoverCatalog(t *testing.T) {
	listed := map[registry.DataType]bool{}
	for _, p := range portTypes {
		if p.data != "" {
			listed[p.data] = true
		}
	}
	for _, c := range BuiltinRegistry().All() {
		for _, ports := range [][]registry.Port{c.Inputs, c.Outputs} {
			for _, port := range ports {
				if !listed[port.Type] {
					t.Errorf("%s port %q: DataType %q has no port-value entry", c.Name, port.Name, port.Type)
				}
			}
		}
	}
}

func TestCodecMapRoundTrip(t *testing.T) {
	in := map[string]any{
		"cable": nautilus.CableID("SeaMeWe-5"),
		"links": []netsim.LinkID{1, 2, 3},
		"count": 7,
	}
	enc, err := EncodePortValues(in)
	if err != nil {
		t.Fatalf("EncodePortValues: %v", err)
	}
	data, err := json.Marshal(enc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var mid map[string]PortValue
	if err := json.Unmarshal(data, &mid); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	out, err := DecodePortValues(mid)
	if err != nil {
		t.Fatalf("DecodePortValues: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("map round trip drifted:\n got %#v\nwant %#v", out, in)
	}
}

func TestCodecRejectsUnknown(t *testing.T) {
	type mystery struct{ X int }
	if _, err := encodePortValue(mystery{1}); err == nil {
		t.Fatal("encoding an unlisted type should fail")
	}
	if _, err := encodePortValue(nil); err == nil {
		t.Fatal("encoding nil should fail")
	}
	if _, err := decodePortValue(PortValue{Type: "no.such.Type", Value: json.RawMessage(`1`)}); err == nil {
		t.Fatal("decoding an unknown tag should fail")
	}
	if _, err := decodePortValue(PortValue{Type: "int", Value: json.RawMessage(`"nope"`)}); err == nil {
		t.Fatal("decoding mismatched JSON should fail")
	}
	// Capabilities dereference pointer inputs, so null never decodes
	// under a pointer tag.
	for _, p := range portTypes {
		if p.typ.Kind() != reflect.Pointer {
			continue
		}
		if v, err := decodePortValue(PortValue{Type: p.tag, Value: json.RawMessage(`null`)}); err == nil {
			t.Errorf("%s: null decoded to %#v, want an error", p.tag, v)
		}
	}
}
