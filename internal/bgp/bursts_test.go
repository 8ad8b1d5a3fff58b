package bgp

// The reference burst detector: DetectBursts and topKeys as they were
// before DetectBursts kept its expanding baseline incrementally and
// counted prefixes only in burst bins, kept verbatim apart from their
// names. FuzzDetectBursts requires DetectBursts to equal it.

import (
	"math"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"arachnet/internal/stats"
)

func refDetectBursts(msgs []Message, bin time.Duration, threshold float64) []Burst {
	const minBaselineBins = 6
	if len(msgs) == 0 || bin <= 0 {
		return nil
	}
	start := msgs[0].Time.Truncate(bin)
	end := msgs[len(msgs)-1].Time
	nBins := int(end.Sub(start)/bin) + 1
	if nBins < minBaselineBins+1 {
		return nil
	}
	counts := make([]float64, nBins)
	withdrawals := make([]int, nBins)
	prefixCount := make([]map[string]int, nBins)
	for _, m := range msgs {
		i := int(m.Time.Sub(start) / bin)
		if i < 0 || i >= nBins {
			continue
		}
		counts[i]++
		if m.Type == Withdraw {
			withdrawals[i]++
		}
		if prefixCount[i] == nil {
			prefixCount[i] = make(map[string]int)
		}
		prefixCount[i][m.Prefix.String()]++
	}

	var out []Burst
	for i := minBaselineBins; i < nBins; i++ {
		base, err := stats.FitBaseline(counts[:i])
		if err != nil {
			continue
		}
		score := base.Score(counts[i])
		if score < threshold {
			continue
		}
		b := Burst{
			Start:       start.Add(time.Duration(i) * bin),
			Duration:    bin,
			Messages:    int(counts[i]),
			Withdrawals: withdrawals[i],
			Score:       score,
			TopPrefixes: refTopKeys(prefixCount[i], 5),
		}
		b.WithdrawHeavy = withdrawals[i]*2 > int(counts[i])
		out = append(out, b)
	}
	return out
}

func refTopKeys(m map[string]int, k int) []string {
	type kv struct {
		key string
		n   int
	}
	kvs := make([]kv, 0, len(m))
	for key, n := range m {
		kvs = append(kvs, kv{key, n})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].n != kvs[j].n {
			return kvs[i].n > kvs[j].n
		}
		return kvs[i].key < kvs[j].key
	})
	if len(kvs) > k {
		kvs = kvs[:k]
	}
	out := make([]string, len(kvs))
	for i, e := range kvs {
		out[i] = e.key
	}
	return out
}

// fuzzPrefixes are the prefixes a fuzzed message may carry: IPv4 and
// IPv6 ones, one with host bits set, and two different invalid ones,
// which print alike.
var fuzzPrefixes = []netip.Prefix{
	netip.MustParsePrefix("10.0.1.0/24"),
	netip.MustParsePrefix("10.0.2.0/24"),
	netip.MustParsePrefix("10.0.2.0/23"),
	netip.MustParsePrefix("10.0.2.7/24"),
	netip.MustParsePrefix("2001:db8::/32"),
	netip.MustParsePrefix("::ffff:10.0.1.0/120"),
	{},
	netip.PrefixFrom(netip.MustParseAddr("10.0.3.0"), 99),
}

// FuzzDetectBursts decodes a message stream and requires DetectBursts
// to return the reference's bursts, scores compared bit for bit. Each
// message takes two bytes of stream: its time in steps from a fixed
// start (repeats give equal times, gaps give empty bins) and, in the
// low three bits, its prefix, with a withdrawal when bit 3 is set. A
// step is 1 to 60 minutes; bin is in quarter steps, where zero is an
// invalid bin, so a stream spans at most about a thousand bins. The
// threshold is in tenths of a robust standard deviation, from 0 to 6.
func FuzzDetectBursts(f *testing.F) {
	quiet := func(n int, repeat bool) []byte {
		var b []byte
		for i := range n {
			t := byte(i)
			if repeat {
				t = byte(i / 2)
			}
			b = append(b, t, 0)
		}
		return b
	}
	storm := func(b []byte, at byte, n int, prefixes byte) []byte {
		for i := range n {
			b = append(b, at, 8|byte(i)%prefixes)
		}
		return b
	}
	// Hourly bins: twelve quiet hours, then a withdrawal storm on one
	// prefix, at each threshold step.
	for _, th := range []uint8{0, 10, 40, 60} {
		f.Add(storm(quiet(12, false), 12, 40, 1), uint8(59), uint8(4), th)
	}
	// A storm whose prefixes are each one message rarer than the last,
	// so the fifth and sixth most frequent differ.
	graded := quiet(12, false)
	for p := range byte(6) {
		for range 7 - p {
			graded = append(graded, 12, 8|p)
		}
	}
	f.Add(graded, uint8(59), uint8(4), uint8(40))
	// Repeated timestamps, a storm over every prefix, empty bins.
	f.Add(storm(quiet(16, true), 30, 25, 8), uint8(59), uint8(4), uint8(30))
	f.Add([]byte{0, 0, 0, 1, 2, 2, 9, 3, 9, 3, 9, 11, 40, 12}, uint8(59), uint8(4), uint8(0))
	// A constant series (zero MAD and zero deviation), and a zero bin.
	f.Add(quiet(20, false), uint8(59), uint8(4), uint8(0))
	f.Add(quiet(20, false), uint8(59), uint8(0), uint8(20))
	// Ten-minute steps in 25-minute bins, out of order.
	f.Add([]byte{50, 1, 3, 2, 90, 9, 7, 8, 7, 8, 120, 9, 0, 3}, uint8(9), uint8(10), uint8(15))
	f.Fuzz(func(t *testing.T, stream []byte, step, bin, threshold uint8) {
		start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
		stepD := time.Duration(1+step%60) * time.Minute
		var msgs []Message
		for i := 0; i+2 <= len(stream); i += 2 {
			m := Message{
				Time:   start.Add(time.Duration(stream[i]) * stepD),
				Type:   Announce,
				Prefix: fuzzPrefixes[stream[i+1]&7],
			}
			if stream[i+1]&8 != 0 {
				m.Type = Withdraw
			}
			msgs = append(msgs, m)
		}
		binD, th := time.Duration(bin)*stepD/4, float64(threshold%61)/10
		got, want := DetectBursts(msgs, binD, th), refDetectBursts(msgs, binD, th)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("bursts differ from the reference:\n got %+v\nwant %+v", got, want)
		}
		for i := range got {
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("burst %d scores %v, reference %v", i, got[i].Score, want[i].Score)
			}
		}
	})
}
