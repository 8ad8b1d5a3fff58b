// Package stats implements the statistical machinery used by the
// measurement workflows: descriptive statistics, baseline estimation,
// anomaly and changepoint detection, correlation measures and
// significance testing.
//
// Everything operates on plain float64 slices so every substrate can use
// it without adapters; time indexing lives with the callers.
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// ErrInsufficientData is returned when a computation needs more samples
// than were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(xs []float64) float64 { return varianceAround(xs, Mean(xs)) }

// varianceAround is Variance(xs) given m = Mean(xs).
func varianceAround(xs []float64, m float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the middle value (average of the two middles for even
// lengths). It returns 0 for an empty slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
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
	lo, hi, frac := rankOf(p, len(s))
	if lo == hi {
		return s[lo]
	}
	return lerp(s[lo], s[hi], frac)
}

// rankOf locates the p-th percentile (0 < p < 100) of n sorted values:
// it lies frac of the way from the value at index lo to the one at hi.
func rankOf(p float64, n int) (lo, hi int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// lerp returns the value frac of the way from x to y.
func lerp(x, y, frac float64) float64 { return x*(1-frac) + y*frac }

// MinMax returns the minimum and maximum of xs; zeros for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Baseline summarizes the "normal" regime of a series: robust location
// and scale estimated from a training window.
type Baseline struct {
	Median float64
	MAD    float64 // median absolute deviation, scaled to σ-equivalent
	Mean   float64
	Std    float64
	N      int
}

// FitBaseline estimates a baseline from the given samples. MAD is scaled
// by 1.4826 so it estimates σ for Gaussian data.
func FitBaseline(xs []float64) (Baseline, error) {
	if len(xs) < 3 {
		return Baseline{}, ErrInsufficientData
	}
	med := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	mad := Median(devs) * 1.4826
	return Baseline{Median: med, MAD: mad, Mean: Mean(xs), Std: StdDev(xs), N: len(xs)}, nil
}

// ExpandingBaseline fits a baseline to a series that grows one sample
// at a time: Score is FitBaseline over every sample added so far, then
// Score, bit for bit, without copying or sorting those samples again.
// Samples must not be NaN. The zero value is empty; NewExpandingBaseline
// reserves room up front.
type ExpandingBaseline struct {
	xs     []float64 // in the order added
	sorted []float64
	sum    float64 // of xs, in the order added, as Mean sums
}

// NewExpandingBaseline returns an empty baseline with room for n
// samples.
func NewExpandingBaseline(n int) *ExpandingBaseline {
	buf := make([]float64, 0, 2*n)
	return &ExpandingBaseline{xs: buf[:0:n], sorted: buf[n:n]}
}

// Add appends x to the series.
func (e *ExpandingBaseline) Add(x float64) {
	e.xs = append(e.xs, x)
	e.sum += x
	i, _ := slices.BinarySearch(e.sorted, x)
	e.sorted = slices.Insert(e.sorted, i, x)
}

// Score returns FitBaseline(samples).Score(x) over the samples added so
// far, or ErrInsufficientData under three of them.
func (e *ExpandingBaseline) Score(x float64) (float64, error) {
	n := len(e.sorted)
	if n < 3 {
		return 0, ErrInsufficientData
	}
	lo, hi, frac := rankOf(50, n)
	med := e.sorted[lo]
	if lo != hi {
		med = lerp(med, e.sorted[hi], frac)
	}
	// The absolute deviations from the median grow in two runs: leftward
	// from the last sample below the median and rightward from the first
	// one at or above it. Merging the runs visits the deviations in
	// sorted order, up to the two Median reads.
	right := sort.SearchFloat64s(e.sorted, med)
	left := right - 1
	var devLo, devHi float64
	for k := 0; k <= hi; k++ {
		var d float64
		if right == n || left >= 0 && math.Abs(e.sorted[left]-med) <= math.Abs(e.sorted[right]-med) {
			d = math.Abs(e.sorted[left] - med)
			left--
		} else {
			d = math.Abs(e.sorted[right] - med)
			right++
		}
		if k == lo {
			devLo = d
		}
		devHi = d
	}
	mad := devLo
	if lo != hi {
		mad = lerp(devLo, devHi, frac)
	}
	b := Baseline{Median: med, MAD: mad * 1.4826, Mean: e.sum / float64(n), N: n}
	if b.MAD == 0 {
		// Score reads the standard deviation only for a zero MAD.
		b.Std = math.Sqrt(varianceAround(e.xs, b.Mean))
	}
	return b.Score(x), nil
}

// Score returns the robust z-score of a value against the baseline. A
// zero-MAD baseline falls back to the classic z-score; a zero-σ baseline
// returns +Inf for any deviation.
func (b Baseline) Score(x float64) float64 {
	scale := b.MAD
	center := b.Median
	if scale == 0 {
		scale = b.Std
		center = b.Mean
	}
	if scale == 0 {
		if x == center {
			return 0
		}
		return math.Inf(1)
	}
	return (x - center) / scale
}

// Anomaly is one detected outlier.
type Anomaly struct {
	Index int
	Value float64
	Score float64 // robust z-score against the baseline
}

// DetectAnomalies fits a baseline on the first trainN samples and flags
// every later sample whose robust z-score exceeds threshold.
func DetectAnomalies(xs []float64, trainN int, threshold float64) ([]Anomaly, error) {
	if trainN < 3 || trainN >= len(xs) {
		return nil, ErrInsufficientData
	}
	b, err := FitBaseline(xs[:trainN])
	if err != nil {
		return nil, err
	}
	var out []Anomaly
	for i := trainN; i < len(xs); i++ {
		if s := b.Score(xs[i]); math.Abs(s) >= threshold {
			out = append(out, Anomaly{Index: i, Value: xs[i], Score: s})
		}
	}
	return out, nil
}

// Changepoint is the result of a level-shift search.
type Changepoint struct {
	Index     int     // first sample of the new regime
	Before    float64 // mean before
	After     float64 // mean after
	Shift     float64 // After - Before
	TStat     float64 // Welch's t statistic of the split
	PValue    float64 // two-sided p-value
	Signif    bool    // PValue < 0.01
	Magnitude float64 // |Shift| / pooled std
}

// DetectShift finds the single most likely mean-shift point of a series
// by maximizing the Welch t statistic over all admissible split points
// (each side keeps at least minSeg samples).
func DetectShift(xs []float64, minSeg int) (Changepoint, error) {
	if minSeg < 2 {
		minSeg = 2
	}
	if len(xs) < 2*minSeg {
		return Changepoint{}, ErrInsufficientData
	}
	best := Changepoint{TStat: -1}
	// Mean sums in index order, so the left side's sum grows by one
	// sample per split.
	var sumLeft float64
	for _, x := range xs[:minSeg-1] {
		sumLeft += x
	}
	for i := minSeg; i <= len(xs)-minSeg; i++ {
		sumLeft += xs[i-1]
		a := moments{n: float64(i), mean: sumLeft / float64(i)}
		a.variance = varianceAround(xs[:i], a.mean)
		b := momentsOf(xs[i:])
		t, df := a.welch(b)
		at := math.Abs(t)
		if at > best.TStat {
			p := 2 * (1 - studentTCDF(at, df))
			pooled := math.Sqrt((a.variance + b.variance) / 2)
			mag := math.Inf(1)
			if pooled > 0 {
				mag = math.Abs(b.mean-a.mean) / pooled
			}
			best = Changepoint{
				Index: i, Before: a.mean, After: b.mean, Shift: b.mean - a.mean,
				TStat: at, PValue: p, Signif: p < 0.01, Magnitude: mag,
			}
		}
	}
	if best.TStat < 0 {
		return Changepoint{}, ErrInsufficientData
	}
	return best, nil
}

// moments are what Welch's test reads of one sample: its size, Mean
// and Variance.
type moments struct {
	n, mean, variance float64
}

func momentsOf(xs []float64) moments {
	m := Mean(xs)
	return moments{n: float64(len(xs)), mean: m, variance: varianceAround(xs, m)}
}

// welch returns Welch's t statistic and degrees of freedom for the
// samples a and b.
func (a moments) welch(b moments) (t, df float64) {
	na, nb := a.n, b.n
	va, vb := a.variance, b.variance
	se := math.Sqrt(va/na + vb/nb)
	if se == 0 {
		if a.mean == b.mean {
			return 0, na + nb - 2
		}
		return math.Inf(1), na + nb - 2
	}
	t = (b.mean - a.mean) / se
	num := math.Pow(va/na+vb/nb, 2)
	den := math.Pow(va/na, 2)/(na-1) + math.Pow(vb/nb, 2)/(nb-1)
	if den == 0 {
		df = na + nb - 2
	} else {
		df = num / den
	}
	return t, df
}

// WelchTTest runs a two-sided Welch's t-test and returns the t statistic
// and p-value.
func WelchTTest(a, b []float64) (t, p float64, err error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 1, ErrInsufficientData
	}
	t, df := momentsOf(a).welch(momentsOf(b))
	if math.IsInf(t, 0) {
		return t, 0, nil
	}
	p = 2 * (1 - studentTCDF(math.Abs(t), df))
	return t, p, nil
}

// studentTCDF returns P(T <= t) for Student's t with df degrees of
// freedom, via the regularized incomplete beta function.
func studentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	ib := regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// regIncBeta computes the regularized incomplete beta I_x(a, b) with the
// continued-fraction expansion (Numerical Recipes style).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func betacf(a, b, x float64) float64 {
	const maxIter = 200
	const eps = 3e-14
	const fpmin = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series. It returns 0 when either series is constant.
func Pearson(a, b []float64) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, ErrInsufficientData
	}
	ma, mb := Mean(a), Mean(b)
	var sab, sa, sb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		sa += da * da
		sb += db * db
	}
	if sa == 0 || sb == 0 {
		return 0, nil
	}
	return sab / math.Sqrt(sa*sb), nil
}

// ranks assigns fractional ranks (ties get the average rank).
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman returns the Spearman rank correlation of two equal-length
// series.
func Spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, ErrInsufficientData
	}
	return Pearson(ranks(a), ranks(b))
}

// KendallTau returns Kendall's tau-a of two equal-length series.
func KendallTau(a, b []float64) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, ErrInsufficientData
	}
	var conc, disc float64
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			s := (a[i] - a[j]) * (b[i] - b[j])
			switch {
			case s > 0:
				conc++
			case s < 0:
				disc++
			}
		}
	}
	n := float64(len(a))
	return (conc - disc) / (n * (n - 1) / 2), nil
}

// Jaccard returns |A∩B| / |A∪B| of two string sets; 1 when both empty.
func Jaccard(a, b []string) float64 {
	sa := make(map[string]bool, len(a))
	for _, x := range a {
		sa[x] = true
	}
	sb := make(map[string]bool, len(b))
	for _, x := range b {
		sb[x] = true
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for x := range sa {
		if sb[x] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// CombineEvidence fuses independent confidence scores in [0,1] with a
// noisy-OR: the combined belief that at least one evidence source is
// right. Used by the forensic workflow to merge statistical,
// infrastructure and routing evidence.
func CombineEvidence(confs ...float64) float64 {
	p := 1.0
	for _, c := range confs {
		if c < 0 {
			c = 0
		}
		if c > 1 {
			c = 1
		}
		p *= 1 - c
	}
	return 1 - p
}
