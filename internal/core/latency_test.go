package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"

	"arachnet/internal/stats"
	"arachnet/internal/traceroute"
)

// refDetectLatencyShift is DetectLatencyShift as it was before it
// grouped the archive by probe: Series, LossRate and firstLoss each
// scan the whole archive for one probe.
func refDetectLatencyShift(arch *traceroute.Archive) LatencyFinding {
	f := LatencyFinding{}
	var shiftTimes []time.Time
	var befores, afters []float64
	minP := 1.0
	total := 0
	for _, probe := range arch.Probes() {
		times, rtts := arch.Series(probe)
		if lr := arch.LossRate(probe); lr > 0.2 {
			f.LostProbes = append(f.LostProbes, probe)
		}
		if len(rtts) < 12 {
			continue
		}
		total++
		cp, err := stats.DetectShift(rtts, 6)
		if err != nil || !cp.Signif || cp.Shift <= 1.0 {
			continue
		}
		f.Probes = append(f.Probes, probe)
		shiftTimes = append(shiftTimes, times[cp.Index])
		befores = append(befores, cp.Before)
		afters = append(afters, cp.After)
		if cp.PValue < minP {
			minP = cp.PValue
		}
	}
	if len(f.Probes) == 0 {
		if len(f.LostProbes) > 0 && total+len(f.LostProbes) > 0 {
			if at, ok := refFirstLossTime(arch, f.LostProbes); ok {
				f.Detected = true
				f.ShiftAt = at
				share := float64(len(f.LostProbes)) / float64(total+len(f.LostProbes))
				f.Confidence = 0.8 * math.Sqrt(share)
				f.PValue = 0.01
			}
		}
		return f
	}
	f.Detected = true
	sort.Slice(shiftTimes, func(i, j int) bool { return shiftTimes[i].Before(shiftTimes[j]) })
	f.ShiftAt = shiftTimes[len(shiftTimes)/2]
	f.MeanBefore = stats.Mean(befores)
	f.MeanAfter = stats.Mean(afters)
	f.DeltaMs = f.MeanAfter - f.MeanBefore
	f.PValue = minP
	share := float64(len(f.Probes)) / float64(total)
	f.Confidence = math.Sqrt(share) * (1 - minP)
	if f.Confidence > 1 {
		f.Confidence = 1
	}
	return f
}

func refFirstLossTime(arch *traceroute.Archive, lost []string) (time.Time, bool) {
	lostSet := map[string]bool{}
	for _, p := range lost {
		lostSet[p] = true
	}
	firstLoss := map[string]time.Time{}
	reachedBefore := map[string]bool{}
	for _, m := range arch.Measurements {
		if !lostSet[m.Probe] {
			continue
		}
		if m.Reached {
			reachedBefore[m.Probe] = true
			delete(firstLoss, m.Probe)
			continue
		}
		if reachedBefore[m.Probe] {
			if _, ok := firstLoss[m.Probe]; !ok {
				firstLoss[m.Probe] = m.Time
			}
		}
	}
	if len(firstLoss) == 0 {
		return time.Time{}, false
	}
	var times []time.Time
	for _, t := range firstLoss {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	return times[len(times)/2], true
}

// randomArchive is a campaign-shaped archive: each tick measures every
// probe in name order. Each probe may shift its latency, go dark and
// come back at random ticks, so both the shift and the loss paths run.
func randomArchive(rng *rand.Rand) *traceroute.Archive {
	probes := rng.IntN(6) + 1
	ticks := rng.IntN(60) + 1
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	type plan struct {
		base, shift    float64
		shiftAt        int
		darkAt, backAt int
		lossy          bool
	}
	plans := make([]plan, probes)
	for p := range plans {
		plans[p] = plan{
			base:    20 + 200*rng.Float64(),
			shift:   []float64{0, 0.5, 5, 40}[rng.IntN(4)],
			shiftAt: rng.IntN(ticks + 1),
			darkAt:  rng.IntN(ticks + 1),
			backAt:  rng.IntN(2 * ticks),
			lossy:   rng.IntN(4) == 0,
		}
	}
	arch := &traceroute.Archive{}
	for k := 0; k < ticks; k++ {
		at := start.Add(time.Duration(k) * time.Hour)
		for p, pl := range plans {
			m := traceroute.Measurement{Probe: fmt.Sprintf("p%d", p), Time: at}
			dark := k >= pl.darkAt && k < pl.backAt || pl.lossy && rng.IntN(3) == 0
			if !dark {
				m.Reached = true
				m.RTTms = pl.base + rng.NormFloat64()
				if k >= pl.shiftAt {
					m.RTTms += pl.shift
				}
			}
			arch.Measurements = append(arch.Measurements, m)
		}
	}
	return arch
}

// TestDetectLatencyShiftMatchesReference holds the detector, which
// groups the archive by probe, to the per-probe scans it replaced, on the scenario archives of the
// small world and on random archives, field for field.
func TestDetectLatencyShiftMatchesReference(t *testing.T) {
	env := testEnv(t, false)
	for seed := uint64(1); seed <= 6; seed++ {
		if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: seed}); err != nil {
			t.Fatal(err)
		}
		arch := env.Scenario().Archive
		if got, want := DetectLatencyShift(arch), refDetectLatencyShift(arch); !reflect.DeepEqual(got, want) {
			t.Errorf("scenario %d: %+v, reference %+v", seed, got, want)
		}
	}
	rng := rand.New(rand.NewPCG(30, 31))
	shifted, lossOnly := 0, 0
	for i := 0; i < 2000; i++ {
		arch := randomArchive(rng)
		got, want := DetectLatencyShift(arch), refDetectLatencyShift(arch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("archive %d: %+v, reference %+v", i, got, want)
		}
		switch {
		case len(want.Probes) > 0:
			shifted++
		case want.Detected:
			lossOnly++
		}
	}
	if shifted == 0 || lossOnly == 0 {
		t.Errorf("%d random archives shifted and %d went dark only; the test needs both", shifted, lossOnly)
	}
}
