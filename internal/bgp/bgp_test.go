package bgp

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"arachnet/internal/netsim"
)

func testWorld(t testing.TB) *netsim.World {
	t.Helper()
	w, err := netsim.Generate(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestComputeTableFullReachability(t *testing.T) {
	w := testWorld(t)
	tab := ComputeTable(w, nil)
	reach, total := tab.ReachabilityMatrixSize()
	if reach != total {
		t.Errorf("healthy world not fully reachable: %d/%d", reach, total)
	}
}

func TestRoutesAreValleyFree(t *testing.T) {
	w := testWorld(t)
	tab := ComputeTable(w, nil)

	rel := map[[2]netsim.ASN]string{} // (from, to) from from's perspective
	for _, l := range w.ASLinks {
		switch l.Rel {
		case netsim.CustomerToProvider:
			rel[[2]netsim.ASN{l.A, l.B}] = "up"   // customer → provider
			rel[[2]netsim.ASN{l.B, l.A}] = "down" // provider → customer
		case netsim.PeerToPeer:
			rel[[2]netsim.ASN{l.A, l.B}] = "across"
			rel[[2]netsim.ASN{l.B, l.A}] = "across"
		}
	}
	for _, viewer := range tab.Viewers() {
		for origin, r := range tab.RoutesFrom(viewer) {
			if r.Path[0] != viewer || r.Path[len(r.Path)-1] != origin {
				t.Fatalf("path endpoints wrong: %v for %d→%d", r.Path, viewer, origin)
			}
			// Walking from the origin toward the viewer, a valley-free
			// path is a sequence of "up" hops, at most one "across", then
			// only "down" hops. Equivalently from viewer→origin the
			// reversed sequence: downs, optional across, ups.
			seenUp := false
			seenAcross := 0
			for i := len(r.Path) - 1; i > 0; i-- {
				hop := rel[[2]netsim.ASN{r.Path[i], r.Path[i-1]}]
				switch hop {
				case "up":
					if seenAcross > 0 || seenUp && false {
						t.Fatalf("up after across in %v", r.Path)
					}
				case "across":
					seenAcross++
					if seenAcross > 1 {
						t.Fatalf("two peer hops in %v", r.Path)
					}
				case "down":
					seenUp = true // once we go down, no more up/across allowed
				default:
					t.Fatalf("path %v uses non-adjacent hop %d→%d", r.Path, r.Path[i], r.Path[i-1])
				}
				if hop != "down" && seenUp {
					t.Fatalf("valley in path %v", r.Path)
				}
			}
			// No loops.
			seen := map[netsim.ASN]bool{}
			for _, a := range r.Path {
				if seen[a] {
					t.Fatalf("loop in path %v", r.Path)
				}
				seen[a] = true
			}
		}
	}
}

func TestPreferCustomerRoutes(t *testing.T) {
	w := testWorld(t)
	tab := ComputeTable(w, nil)
	// Every origin's providers must use a customer route to it.
	for _, l := range w.ASLinks {
		if l.Rel != netsim.CustomerToProvider {
			continue
		}
		r, ok := tab.Route(l.B, l.A) // provider viewing its customer
		if !ok {
			t.Fatalf("provider %d cannot reach customer %d", l.B, l.A)
		}
		if r.Kind != KindCustomer {
			t.Errorf("provider %d reaches customer %d via %v, want customer route", l.B, l.A, r.Kind)
		}
	}
}

func TestSelfRoute(t *testing.T) {
	w := testWorld(t)
	tab := ComputeTable(w, nil)
	for _, a := range w.ASes {
		r, ok := tab.Route(a.ASN, a.ASN)
		if !ok || r.Kind != KindOrigin || len(r.Path) != 1 {
			t.Fatalf("self route of %d = %+v, %v", a.ASN, r, ok)
		}
	}
}

func TestComputeTableDeterministic(t *testing.T) {
	w := testWorld(t)
	t1 := ComputeTable(w, nil)
	t2 := ComputeTable(w, nil)
	for _, v := range t1.Viewers() {
		r1 := t1.RoutesFrom(v)
		r2 := t2.RoutesFrom(v)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("tables differ for viewer %d", v)
		}
	}
}

// failAllLinksOfAS returns the IDs of every inter-AS link touching asn.
func failAllLinksOfAS(w *netsim.World, asn netsim.ASN) map[netsim.LinkID]bool {
	failed := map[netsim.LinkID]bool{}
	for _, l := range w.IPLinks {
		if l.IntraAS {
			continue
		}
		if l.ASLinkAB[0] == asn || l.ASLinkAB[1] == asn {
			failed[l.ID] = true
		}
	}
	return failed
}

func TestFailureReducesReachability(t *testing.T) {
	w := testWorld(t)
	// Cut off a stub AS entirely: nobody can reach it anymore.
	var stub netsim.ASN
	for _, a := range w.ASes {
		if a.Tier == netsim.Stub {
			stub = a.ASN
			break
		}
	}
	failed := failAllLinksOfAS(w, stub)
	tab := ComputeTable(w, failed)
	for _, v := range tab.Viewers() {
		if v == stub {
			continue
		}
		if tab.Reachable(v, stub) {
			t.Fatalf("AS %d still reaches isolated stub %d", v, stub)
		}
	}
	// The stub keeps its self route.
	if !tab.Reachable(stub, stub) {
		t.Error("stub lost its own origin route")
	}
}

func TestPartialFailureReroutes(t *testing.T) {
	w := testWorld(t)
	base := ComputeTable(w, nil)

	// Fail the single highest-distance submarine link: paths must either
	// survive identical (unaffected) or change; total reachability must
	// not collapse.
	var worst netsim.IPLink
	for _, l := range w.SubmarineLinks() {
		if l.DistKm > worst.DistKm {
			worst = l
		}
	}
	failed := map[netsim.LinkID]bool{worst.ID: true}
	tab := ComputeTable(w, failed)
	reach, total := tab.ReachabilityMatrixSize()
	baseReach, _ := base.ReachabilityMatrixSize()
	if reach > baseReach {
		t.Errorf("failure increased reachability: %d > %d", reach, baseReach)
	}
	if float64(reach) < 0.9*float64(total) {
		t.Errorf("single link failure collapsed reachability to %d/%d", reach, total)
	}
}

func TestDiffEmitsWithdrawalsOnIsolation(t *testing.T) {
	w := testWorld(t)
	var stub netsim.ASN
	for _, a := range w.ASes {
		if a.Tier == netsim.Stub {
			stub = a.ASN
			break
		}
	}
	before := ComputeTable(w, nil)
	after := ComputeTable(w, failAllLinksOfAS(w, stub))
	collectors := []netsim.ASN{w.ASes[0].ASN}
	at := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	msgs := Diff(w, before, after, collectors, at)
	var withdrawals int
	for _, m := range msgs {
		if !m.Time.Equal(at) {
			t.Fatalf("message time %v, want %v", m.Time, at)
		}
		if m.Type == Withdraw {
			withdrawals++
			if len(m.Path) != 0 {
				t.Error("withdrawal carries a path")
			}
		}
	}
	if withdrawals == 0 {
		t.Fatal("no withdrawals after isolating a stub")
	}
}

func TestDiffEmptyOnNoChange(t *testing.T) {
	w := testWorld(t)
	tab := ComputeTable(w, nil)
	msgs := Diff(w, tab, tab, tab.Viewers(), time.Now())
	if len(msgs) != 0 {
		t.Fatalf("diff of identical tables = %d messages", len(msgs))
	}
}

func TestGenerateStream(t *testing.T) {
	w := testWorld(t)
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	var stub netsim.ASN
	for _, a := range w.ASes {
		if a.Tier == netsim.Stub {
			stub = a.ASN
			break
		}
	}
	var links []netsim.LinkID
	for id := range failAllLinksOfAS(w, stub) {
		links = append(links, id)
	}
	events := []FailureEvent{{At: start.Add(12 * time.Hour), Links: links, Label: "test"}}
	cfg := StreamConfig{
		Start: start, End: start.Add(24 * time.Hour),
		Collectors:   []netsim.ASN{w.ASes[0].ASN, w.ASes[1].ASN},
		NoisePerHour: 4, Seed: 1,
	}
	msgs, err := GenerateStream(NewTables(w), events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 {
		t.Fatal("empty stream")
	}
	// Time-ordered.
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Time.Before(msgs[i-1].Time) {
			t.Fatal("stream not time-ordered")
		}
	}
	// Withdrawals cluster at the event time.
	var withAt, withTotal int
	for _, m := range msgs {
		if m.Type == Withdraw {
			withTotal++
			if m.Time.Equal(events[0].At) {
				withAt++
			}
		}
	}
	if withTotal == 0 || withAt != withTotal {
		t.Errorf("withdrawals: %d at event of %d total", withAt, withTotal)
	}
	// Determinism.
	again, err := GenerateStream(NewTables(w), events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msgs, again) {
		t.Error("stream not deterministic")
	}
}

func TestGenerateStreamValidation(t *testing.T) {
	w := testWorld(t)
	now := time.Now()
	if _, err := GenerateStream(NewTables(w), nil, StreamConfig{Start: now, End: now}); err == nil {
		t.Error("empty window must error")
	}
	if _, err := GenerateStream(NewTables(w), nil, StreamConfig{Start: now, End: now.Add(time.Hour)}); err == nil {
		t.Error("no collectors must error")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	msgs := []Message{
		{
			Time: time.Date(2025, 6, 1, 1, 2, 3, 4, time.UTC), Collector: 101,
			Type: Announce, Prefix: netip.MustParsePrefix("10.1.2.0/24"),
			Path: []netsim.ASN{101, 102, 103},
		},
		{
			Time: time.Date(2025, 6, 1, 2, 0, 0, 0, time.UTC), Collector: 102,
			Type: Withdraw, Prefix: netip.MustParsePrefix("10.9.0.0/16"),
		},
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msgs, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, msgs)
	}
}

func TestDumpEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDump(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty dump read = %v, %v", got, err)
	}
}

func TestDumpBadMagic(t *testing.T) {
	_, err := ReadDump(bytes.NewReader([]byte("NOTADUMPFILE")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	_, err = ReadDump(bytes.NewReader(nil))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty input err = %v, want ErrBadMagic", err)
	}
}

func TestDumpTruncated(t *testing.T) {
	msgs := []Message{{
		Time: time.Now().UTC(), Collector: 1, Type: Announce,
		Prefix: netip.MustParsePrefix("10.0.0.0/24"), Path: []netsim.ASN{1, 2},
	}}
	var buf bytes.Buffer
	if err := WriteDump(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 9; cut < len(full)-1; cut += 3 {
		_, err := ReadDump(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestDumpCorruptType(t *testing.T) {
	msgs := []Message{{
		Time: time.Now().UTC(), Collector: 1, Type: Announce,
		Prefix: netip.MustParsePrefix("10.0.0.0/24"),
	}}
	var buf bytes.Buffer
	if err := WriteDump(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8+12] = 99 // type byte of first record
	_, err := ReadDump(bytes.NewReader(raw))
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
}

func TestDumpRejectsIPv6AndLongPaths(t *testing.T) {
	var buf bytes.Buffer
	dw := NewDumpWriter(&buf)
	err := dw.WriteMessage(Message{
		Time: time.Now(), Type: Announce,
		Prefix: netip.MustParsePrefix("2001:db8::/32"),
	})
	if err == nil {
		t.Error("IPv6 prefix accepted")
	}
	err = dw.WriteMessage(Message{
		Time: time.Now(), Type: Announce,
		Prefix: netip.MustParsePrefix("10.0.0.0/24"),
		Path:   make([]netsim.ASN, maxPathLen+1),
	})
	if err == nil {
		t.Error("oversized path accepted")
	}
}

func TestDumpQuickRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(tsNanos int64, collector uint32, typ bool, a, b, c, d byte, bits uint8, rawPath []uint32) bool {
		m := Message{
			Time:      time.Unix(0, tsNanos).UTC(),
			Collector: netsim.ASN(collector),
			Type:      Announce,
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, d}), int(bits%33)),
		}
		if !typ {
			m.Type = Withdraw
		} else {
			if len(rawPath) > maxPathLen {
				rawPath = rawPath[:maxPathLen]
			}
			for _, p := range rawPath {
				m.Path = append(m.Path, netsim.ASN(p))
			}
		}
		var buf bytes.Buffer
		if err := WriteDump(&buf, []Message{m}); err != nil {
			return false
		}
		got, err := ReadDump(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		return reflect.DeepEqual(got[0], m)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDetectBursts(t *testing.T) {
	base := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	var msgs []Message
	pfx := netip.MustParsePrefix("10.0.1.0/24")
	// 12 quiet hours: 2 announcements per hour.
	for h := 0; h < 12; h++ {
		for i := 0; i < 2; i++ {
			msgs = append(msgs, Message{
				Time: base.Add(time.Duration(h)*time.Hour + time.Duration(i)*7*time.Minute),
				Type: Announce, Prefix: pfx,
			})
		}
	}
	// Hour 12: withdrawal storm.
	for i := 0; i < 80; i++ {
		msgs = append(msgs, Message{
			Time: base.Add(12*time.Hour + time.Duration(i)*10*time.Second),
			Type: Withdraw, Prefix: pfx,
		})
	}
	bursts := DetectBursts(msgs, time.Hour, 5)
	if len(bursts) == 0 {
		t.Fatal("storm not detected")
	}
	b := bursts[0]
	if !b.Start.Equal(base.Add(12 * time.Hour)) {
		t.Errorf("burst at %v, want hour 12", b.Start)
	}
	if !b.WithdrawHeavy {
		t.Error("withdrawal storm not flagged withdraw-heavy")
	}
	if len(b.TopPrefixes) == 0 || b.TopPrefixes[0] != pfx.String() {
		t.Errorf("top prefixes = %v", b.TopPrefixes)
	}
}

func TestDetectBurstsQuietStream(t *testing.T) {
	base := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	var msgs []Message
	for h := 0; h < 24; h++ {
		msgs = append(msgs, Message{Time: base.Add(time.Duration(h) * time.Hour), Type: Announce,
			Prefix: netip.MustParsePrefix("10.0.0.0/24")})
	}
	if got := DetectBursts(msgs, time.Hour, 6); len(got) != 0 {
		t.Errorf("false positives on quiet stream: %d", len(got))
	}
	if got := DetectBursts(nil, time.Hour, 3); got != nil {
		t.Error("nil input should yield nil")
	}
	if got := DetectBursts(msgs, 0, 3); got != nil {
		t.Error("zero bin should yield nil")
	}
}

func TestCorrelateWindow(t *testing.T) {
	base := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	msgs := []Message{
		{Time: base.Add(1 * time.Hour), Type: Withdraw, Prefix: pfx},
		{Time: base.Add(2 * time.Hour), Type: Withdraw, Prefix: pfx},
		{Time: base.Add(20 * time.Hour), Type: Withdraw, Prefix: pfx},
		{Time: base.Add(2 * time.Hour), Type: Announce, Prefix: pfx},
	}
	got := CorrelateWindow(msgs, base, base.Add(3*time.Hour))
	if got < 0.66 || got > 0.67 {
		t.Errorf("correlation = %f, want 2/3", got)
	}
	if CorrelateWindow(nil, base, base.Add(time.Hour)) != 0 {
		t.Error("empty stream correlation must be 0")
	}
}

func BenchmarkComputeTable(b *testing.B) {
	w := testWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeTable(w, nil)
	}
}

func BenchmarkDumpWrite(b *testing.B) {
	msgs := make([]Message, 1000)
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	for i := range msgs {
		msgs[i] = Message{Time: time.Now(), Collector: 1, Type: Announce, Prefix: pfx,
			Path: []netsim.ASN{1, 2, 3, 4}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteDump(&buf, msgs); err != nil {
			b.Fatal(err)
		}
	}
}
