package bgp

import (
	"cmp"
	"net/netip"
	"slices"
	"strings"
	"time"

	"arachnet/internal/stats"
)

// Burst is one detected update-rate anomaly: a time bin whose message
// count is a robust outlier against the preceding baseline.
type Burst struct {
	Start         time.Time
	Duration      time.Duration
	Messages      int
	Withdrawals   int
	Score         float64 // robust z-score vs baseline bins
	TopPrefixes   []string
	WithdrawHeavy bool // withdrawals dominate: outage signature
}

// DetectBursts bins a time-ordered message stream and flags bins whose
// volume deviates from the median bin volume by at least threshold
// robust standard deviations. It needs at least minBaselineBins bins of
// history before flagging anything.
func DetectBursts(msgs []Message, bin time.Duration, threshold float64) []Burst {
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
	binOf := func(m *Message) int {
		if i := int(m.Time.Sub(start) / bin); i >= 0 && i < nBins {
			return i
		}
		return -1
	}
	counts := make([]float64, nBins)
	withdrawals := make([]int, nBins)
	for i := range msgs {
		if b := binOf(&msgs[i]); b >= 0 {
			counts[b]++
			if msgs[i].Type == Withdraw {
				withdrawals[b]++
			}
		}
	}

	// Each bin is scored against every bin before it, a baseline that
	// grows by one bin per step.
	var out []Burst
	var burstBins []int
	base := stats.NewExpandingBaseline(nBins)
	for i := range minBaselineBins {
		base.Add(counts[i])
	}
	for i := minBaselineBins; i < nBins; i++ {
		score, err := base.Score(counts[i])
		base.Add(counts[i])
		if err != nil || score < threshold {
			continue
		}
		out = append(out, Burst{
			Start:         start.Add(time.Duration(i) * bin),
			Duration:      bin,
			Messages:      int(counts[i]),
			Withdrawals:   withdrawals[i],
			Score:         score,
			WithdrawHeavy: withdrawals[i]*2 > int(counts[i]),
		})
		burstBins = append(burstBins, i)
	}
	if len(out) == 0 {
		return out
	}

	// Only the bursts' prefixes are counted, and only their top ones
	// formatted.
	burstOf := make([]int, nBins) // burst index + 1, or 0
	prefixes := make([]map[netip.Prefix]int, len(out))
	for k, b := range burstBins {
		burstOf[b] = k + 1
		prefixes[k] = map[netip.Prefix]int{}
	}
	for i := range msgs {
		if b := binOf(&msgs[i]); b >= 0 && burstOf[b] > 0 {
			prefixes[burstOf[b]-1][prefixKey(msgs[i].Prefix)]++
		}
	}
	for k := range out {
		out[k].TopPrefixes = topPrefixes(prefixes[k], 5)
	}
	return out
}

// prefixKey maps p to the key it is counted under. Every invalid prefix
// prints as the same text, so they all count as the zero Prefix; valid
// prefixes print distinctly.
func prefixKey(p netip.Prefix) netip.Prefix {
	if !p.IsValid() {
		return netip.Prefix{}
	}
	return p
}

// topPrefixes returns the k most frequent prefixes of counts as text,
// most frequent first and ties in text order. Only prefixes as frequent
// as the k-th most frequent can make the cut, so only those are
// formatted.
func topPrefixes(counts map[netip.Prefix]int, k int) []string {
	ns := make([]int, 0, len(counts))
	for _, n := range counts {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	cut := 0
	if len(ns) > k {
		cut = ns[len(ns)-k]
	}
	type kv struct {
		key string
		n   int
	}
	var kvs []kv
	for p, n := range counts {
		if n >= cut {
			kvs = append(kvs, kv{p.String(), n})
		}
	}
	slices.SortFunc(kvs, func(a, b kv) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return strings.Compare(a.key, b.key)
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

// CorrelateWindow reports how strongly the update stream concentrates
// inside [from, to): the fraction of all withdrawals that fall in the
// window, a temporal-correlation score in [0,1] used as routing-layer
// evidence by forensic workflows.
func CorrelateWindow(msgs []Message, from, to time.Time) float64 {
	var inWin, total float64
	for _, m := range msgs {
		if m.Type != Withdraw {
			continue
		}
		total++
		if !m.Time.Before(from) && m.Time.Before(to) {
			inWin++
		}
	}
	if total == 0 {
		return 0
	}
	return inWin / total
}
