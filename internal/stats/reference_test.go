package stats

// The reference statistics: Mean, Variance, Percentile, FitBaseline,
// DetectShift and welch as they were before DetectShift computed each
// split's moments once and Percentile shared its rank arithmetic with
// ExpandingBaseline, kept verbatim apart from their names. The tests
// below require the package's results to equal theirs bit for bit, and
// ExpandingBaseline to score every prefix of a series as the reference
// FitBaseline does.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func refMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func refVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := refMean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

func refStdDev(xs []float64) float64 { return math.Sqrt(refVariance(xs)) }

func refMedian(xs []float64) float64 { return refPercentile(xs, 50) }

func refPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func refFitBaseline(xs []float64) (Baseline, error) {
	if len(xs) < 3 {
		return Baseline{}, ErrInsufficientData
	}
	med := refMedian(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	mad := refMedian(devs) * 1.4826
	return Baseline{Median: med, MAD: mad, Mean: refMean(xs), Std: refStdDev(xs), N: len(xs)}, nil
}

func refDetectShift(xs []float64, minSeg int) (Changepoint, error) {
	if minSeg < 2 {
		minSeg = 2
	}
	if len(xs) < 2*minSeg {
		return Changepoint{}, ErrInsufficientData
	}
	best := Changepoint{TStat: -1}
	for i := minSeg; i <= len(xs)-minSeg; i++ {
		t, df := refWelch(xs[:i], xs[i:])
		at := math.Abs(t)
		if at > best.TStat {
			p := 2 * (1 - studentTCDF(at, df))
			before, after := refMean(xs[:i]), refMean(xs[i:])
			pooled := math.Sqrt((refVariance(xs[:i]) + refVariance(xs[i:])) / 2)
			mag := math.Inf(1)
			if pooled > 0 {
				mag = math.Abs(after-before) / pooled
			}
			best = Changepoint{
				Index: i, Before: before, After: after, Shift: after - before,
				TStat: at, PValue: p, Signif: p < 0.01, Magnitude: mag,
			}
		}
	}
	if best.TStat < 0 {
		return Changepoint{}, ErrInsufficientData
	}
	return best, nil
}

func refWelch(a, b []float64) (t, df float64) {
	na, nb := float64(len(a)), float64(len(b))
	va, vb := refVariance(a), refVariance(b)
	se := math.Sqrt(va/na + vb/nb)
	if se == 0 {
		if refMean(a) == refMean(b) {
			return 0, na + nb - 2
		}
		return math.Inf(1), na + nb - 2
	}
	t = (refMean(b) - refMean(a)) / se
	num := math.Pow(va/na+vb/nb, 2)
	den := math.Pow(va/na, 2)/(na-1) + math.Pow(vb/nb, 2)/(nb-1)
	if den == 0 {
		df = na + nb - 2
	} else {
		df = num / den
	}
	return t, df
}

// refSeries draws the series the comparisons run over: small counts
// with many ties (what burst detection bins), constant runs, level
// shifts of noisy floats (what latency series look like), a series
// with signed zeros, and every length from 0 to 40.
func refSeries() [][]float64 {
	rng := rand.New(rand.NewPCG(11, 12))
	var out [][]float64
	for n := range 41 {
		counts, noisy, flat := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range n {
			counts[i] = float64(rng.IntN(4))
			if rng.IntN(9) == 0 {
				counts[i] += float64(rng.IntN(60))
			}
			noisy[i] = 80 + rng.NormFloat64()
			if i > n/2 {
				noisy[i] += 12
			}
			flat[i] = 3
		}
		out = append(out, counts, noisy, flat)
	}
	out = append(out, []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, 0, 7})
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestStatsMatchReference requires Mean, Variance, Percentile,
// FitBaseline and DetectShift to give the reference's results, bit for
// bit, errors included.
func TestStatsMatchReference(t *testing.T) {
	for i, xs := range refSeries() {
		label := fmt.Sprintf("series %d %v", i, xs)
		if !sameBits(Mean(xs), refMean(xs)) || !sameBits(Variance(xs), refVariance(xs)) {
			t.Fatalf("%s: mean or variance differs from the reference", label)
		}
		for _, p := range []float64{-1, 0, 10, 25, 50, 75, 99.9, 100, 101} {
			if got, want := Percentile(xs, p), refPercentile(xs, p); !sameBits(got, want) {
				t.Fatalf("%s: Percentile(%v) = %v, reference %v", label, p, got, want)
			}
		}
		got, err := FitBaseline(xs)
		want, refErr := refFitBaseline(xs)
		if err != refErr || !sameBits(got.Median, want.Median) || !sameBits(got.MAD, want.MAD) ||
			!sameBits(got.Mean, want.Mean) || !sameBits(got.Std, want.Std) || got.N != want.N {
			t.Fatalf("%s: baseline %+v (%v), reference %+v (%v)", label, got, err, want, refErr)
		}
		for minSeg := range 7 {
			got, err := DetectShift(xs, minSeg)
			want, refErr := refDetectShift(xs, minSeg)
			if err != refErr || got.Index != want.Index || got.Signif != want.Signif ||
				!sameBits(got.Before, want.Before) || !sameBits(got.After, want.After) ||
				!sameBits(got.Shift, want.Shift) || !sameBits(got.TStat, want.TStat) ||
				!sameBits(got.PValue, want.PValue) || !sameBits(got.Magnitude, want.Magnitude) {
				t.Fatalf("%s, minSeg %d: changepoint %+v (%v), reference %+v (%v)", label, minSeg, got, err, want, refErr)
			}
		}
	}
}

// TestExpandingBaselineMatchesFitBaseline grows an ExpandingBaseline
// one sample at a time over each series and requires every Score to be
// the reference FitBaseline's over the samples added so far, bit for
// bit, for each sample of the series and a few values around them.
func TestExpandingBaselineMatchesFitBaseline(t *testing.T) {
	for i, xs := range refSeries() {
		e := NewExpandingBaseline(len(xs) / 2) // also grows past its room
		probes := append([]float64{0, -1, 1e6, 2.5}, xs...)
		for n := 0; n <= len(xs); n++ {
			base, refErr := refFitBaseline(xs[:n])
			for _, x := range probes {
				got, err := e.Score(x)
				if err != refErr {
					t.Fatalf("series %d, %d samples: error %v, reference %v", i, n, err, refErr)
				}
				if err == nil && !sameBits(got, base.Score(x)) {
					t.Fatalf("series %d %v, %d samples: Score(%v) = %v, reference %v", i, xs, n, x, got, base.Score(x))
				}
			}
			if n < len(xs) {
				e.Add(xs[n])
			}
		}
	}
}
