package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/registry"
	"arachnet/internal/stats"
	"arachnet/internal/topo"
	"arachnet/internal/traceroute"
	"arachnet/internal/xaminer"
)

func registerBGP(r *registry.Registry) {
	r.MustRegister(registry.Capability{
		Name: "bgp.updates_window", Framework: "bgp",
		Description: "Load the BGP update stream covering the environment's measurement window",
		Outputs:     []registry.Port{{Name: "stream", Type: registry.TBGPStream}},
		Constraints: []string{"requires injected scenario data (collector dumps)"},
		Tags:        []string{"temporal", "routing-data"},
		Cost:        2,
		Pure:        true,
		Reads:       []string{FacetWorld, FacetScenario},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			sc := e.Scenario()
			if sc == nil || len(sc.Stream) == 0 {
				return fmt.Errorf("core: no BGP stream available in this environment")
			}
			c.Out["stream"] = sc.Stream
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "bgp.detect_bursts", Framework: "bgp",
		Description: "Detect update-rate bursts (withdrawal storms) in a BGP stream",
		Inputs:      []registry.Port{{Name: "stream", Type: registry.TBGPStream}},
		Outputs:     []registry.Port{{Name: "bursts", Type: registry.TBGPBursts}},
		Tags:        []string{"anomaly-detection", "routing"},
		Cost:        2,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			msgs, err := inputStream(c)
			if err != nil {
				return err
			}
			c.Out["bursts"] = bgp.DetectBursts(msgs, time.Hour, 4)
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "bgp.correlate_anomaly", Framework: "bgp",
		Description: "Measure how strongly BGP withdrawals concentrate around a detected anomaly time (temporal correlation)",
		Inputs: []registry.Port{
			{Name: "stream", Type: registry.TBGPStream},
			{Name: "anomaly", Type: registry.TAnomaly},
		},
		Outputs: []registry.Port{{Name: "correlation", Type: registry.TFloat}},
		Tags:    []string{"temporal-correlation", "validation"},
		Cost:    2,
		Pure:    true,
		Reads:   []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			msgs, err := inputStream(c)
			if err != nil {
				return err
			}
			f, err := inputAnomaly(c)
			if err != nil {
				return err
			}
			if !f.Detected {
				c.Out["correlation"] = 0.0
				return nil
			}
			c.Out["correlation"] = bgp.CorrelateWindow(msgs, f.ShiftAt.Add(-2*time.Hour), f.ShiftAt.Add(6*time.Hour))
			return nil
		},
	})
}

func inputStream(c *registry.Call) ([]bgp.Message, error) {
	v, err := c.Input("stream")
	if err != nil {
		return nil, err
	}
	msgs, ok := v.([]bgp.Message)
	if !ok {
		return nil, fmt.Errorf("core: stream input is %T", v)
	}
	return msgs, nil
}

func inputAnomaly(c *registry.Call) (LatencyFinding, error) {
	v, err := c.Input("anomaly")
	if err != nil {
		return LatencyFinding{}, err
	}
	f, ok := v.(LatencyFinding)
	if !ok {
		return LatencyFinding{}, fmt.Errorf("core: anomaly input is %T", v)
	}
	return f, nil
}

func registerTraceroute(r *registry.Registry) {
	r.MustRegister(registry.Capability{
		Name: "traceroute.archive_window", Framework: "traceroute",
		Description: "Load the traceroute/latency archive covering the environment's measurement window",
		Outputs:     []registry.Port{{Name: "archive", Type: registry.TTraceArch}},
		Constraints: []string{"requires injected scenario data (probe campaign)"},
		Tags:        []string{"temporal", "measurement-data"},
		Cost:        2,
		Pure:        true,
		Reads:       []string{FacetWorld, FacetScenario},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			sc := e.Scenario()
			if sc == nil || sc.Archive == nil {
				return fmt.Errorf("core: no traceroute archive available in this environment")
			}
			c.Out["archive"] = sc.Archive
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "traceroute.detect_latency_anomaly", Framework: "traceroute",
		Description: "Detect a significant latency level shift across the archive's probes with baselines and significance testing",
		Inputs:      []registry.Port{{Name: "archive", Type: registry.TTraceArch}},
		Outputs:     []registry.Port{{Name: "anomaly", Type: registry.TAnomaly}},
		Tags:        []string{"anomaly-detection", "statistical"},
		Cost:        3,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			v, err := c.Input("archive")
			if err != nil {
				return err
			}
			arch, ok := v.(*traceroute.Archive)
			if !ok {
				return fmt.Errorf("core: archive input is %T", v)
			}
			c.Out["anomaly"] = DetectLatencyShift(arch)
			return nil
		},
	})
}

// DetectLatencyShift runs changepoint detection over every probe series
// and fuses the per-probe findings into one LatencyFinding. Exported so
// the expert baseline uses the identical statistical core — the paper's
// comparison is about workflow composition, not detector quality.
func DetectLatencyShift(arch *traceroute.Archive) LatencyFinding {
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
		// No latency shift — but probes going dark mid-window is an
		// anomaly too (total loss instead of reroute).
		if len(f.LostProbes) > 0 && total+len(f.LostProbes) > 0 {
			if at, ok := firstLossTime(arch, f.LostProbes); ok {
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

// firstLossTime returns the median over lost probes of the first time
// the probe stopped reaching its destination.
func firstLossTime(arch *traceroute.Archive, lost []string) (time.Time, bool) {
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

func registerTopo(r *registry.Registry) {
	r.MustRegister(registry.Capability{
		Name: "topo.cascade_cables", Framework: "topo",
		Description: "Model cascading failures: capacity-based load redistribution over the cable layer plus stress propagation over the AS dependency graph",
		Inputs: []registry.Port{
			{Name: "cables", Type: registry.TCableList},
			{Name: "capacity_factor", Type: registry.TFloat, Optional: true},
		},
		Outputs:     []registry.Port{{Name: "cascade", Type: registry.TCascade}},
		Constraints: []string{"requires the cross-layer map"},
		Tags:        []string{"cascade", "dependency-graph"},
		Cost:        4,
		Pure:        true,
		Reads:       []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			v, err := c.Input("cables")
			if err != nil {
				return err
			}
			ids, ok := v.([]nautilus.CableID)
			if !ok {
				return fmt.Errorf("core: cables input is %T", v)
			}
			factor := 1.2
			if fv, ok := c.In["capacity_factor"]; ok {
				if f, ok := fv.(float64); ok {
					factor = f
				}
			}
			cascade := topo.CascadeCables(e.Catalog, e.CrossMap, ids, factor)
			failedLinks := map[bool]bool{}
			_ = failedLinks
			var all []nautilus.CableID
			all = append(all, cascade.Failed...)
			linkSet := xaminer.FailCables(e.CrossMap, all...)
			stress := topo.PropagateStress(e.World, linkSet, 0.4, 16)
			c.Out["cascade"] = CascadeBundle{Cable: cascade, Stress: stress}
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "topo.propagate_stress", Framework: "topo",
		Description: "Propagate failure stress over the AS graph to find degraded ASes by wave",
		Inputs: []registry.Port{
			{Name: "links", Type: registry.TLinkSet},
			{Name: "threshold", Type: registry.TFloat, Optional: true},
		},
		Outputs: []registry.Port{{Name: "stress", Type: registry.TStress}},
		Tags:    []string{"cascade", "as-layer"},
		Cost:    3,
		Pure:    true,
		Reads:   []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			links, err := inputLinks(c, "links")
			if err != nil {
				return err
			}
			threshold := 0.4
			if tv, ok := c.In["threshold"]; ok {
				if t, ok := tv.(float64); ok {
					threshold = t
				}
			}
			c.Out["stress"] = topo.PropagateStress(e.World, linkSet(links), threshold, 16)
			return nil
		},
	})
}

func registerForensic(r *registry.Registry) {
	r.MustRegister(registry.Capability{
		Name: "nautilus.suspect_cables", Framework: "nautilus",
		Description: "Rank candidate cables for an observed anomaly by infrastructure correlation: carried-link geography vs withdrawal geography, corridor membership, and carried capacity",
		Inputs: []registry.Port{
			{Name: "anomaly", Type: registry.TAnomaly},
			{Name: "stream", Type: registry.TBGPStream},
		},
		Outputs: []registry.Port{{Name: "suspects", Type: registry.TSuspects}},
		Tags:    []string{"forensic", "infrastructure-correlation"},
		Cost:    4,
		Pure:    true,
		Reads:   []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			f, err := inputAnomaly(c)
			if err != nil {
				return err
			}
			msgs, err := inputStream(c)
			if err != nil {
				return err
			}
			c.Out["suspects"] = RankSuspectCables(e.Environment, f, msgs)
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "forensic.synthesize", Framework: "forensic",
		Description: "Fuse statistical, infrastructure and routing evidence into a causation verdict naming the failed cable with confidence",
		Inputs: []registry.Port{
			{Name: "anomaly", Type: registry.TAnomaly},
			{Name: "suspects", Type: registry.TSuspects},
			{Name: "correlation", Type: registry.TFloat},
		},
		Outputs: []registry.Port{{Name: "verdict", Type: registry.TVerdict}},
		Tags:    []string{"evidence-synthesis", "causation"},
		Cost:    2,
		Pure:    true,
		Reads:   []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			f, err := inputAnomaly(c)
			if err != nil {
				return err
			}
			v, err := c.Input("suspects")
			if err != nil {
				return err
			}
			suspects, ok := v.([]CableSuspect)
			if !ok {
				return fmt.Errorf("core: suspects input is %T", v)
			}
			corr, err := inputFloat(c, "correlation")
			if err != nil {
				return err
			}
			c.Out["verdict"] = SynthesizeVerdict(f, suspects, corr)
			return nil
		},
	})

	r.MustRegister(registry.Capability{
		Name: "synthesis.timeline", Framework: "synthesis",
		Description: "Synthesize a unified cross-layer cascade timeline spanning cable, IP, AS and routing layers",
		Inputs: []registry.Port{
			{Name: "report", Type: registry.TImpact},
			{Name: "cascade", Type: registry.TCascade},
			{Name: "bursts", Type: registry.TBGPBursts},
			{Name: "anomaly", Type: registry.TAnomaly, Optional: true},
		},
		Outputs: []registry.Port{{Name: "timeline", Type: registry.TTimeline}},
		Tags:    []string{"synthesis", "cross-layer"},
		Cost:    2,
		Pure:    true,
		Reads:   []string{FacetWorld, FacetScenario},
		Impl: func(c *registry.Call) error {
			e, err := envOf(c.Env)
			if err != nil {
				return err
			}
			rv, err := c.Input("report")
			if err != nil {
				return err
			}
			rep, ok := rv.(*xaminer.ImpactReport)
			if !ok {
				return fmt.Errorf("core: report input is %T", rv)
			}
			cv, err := c.Input("cascade")
			if err != nil {
				return err
			}
			bundle, ok := cv.(CascadeBundle)
			if !ok {
				return fmt.Errorf("core: cascade input is %T", cv)
			}
			bv, err := c.Input("bursts")
			if err != nil {
				return err
			}
			bursts, ok := bv.([]bgp.Burst)
			if !ok {
				return fmt.Errorf("core: bursts input is %T", bv)
			}
			var anomaly *LatencyFinding
			if av, ok := c.In["anomaly"]; ok {
				if f, ok := av.(LatencyFinding); ok {
					anomaly = &f
				}
			}
			c.Out["timeline"] = BuildTimeline(e.Scenario(), e.Now, rep, bundle, bursts, anomaly)
			return nil
		},
	})
}

// RankSuspectCables scores every catalog cable against an anomaly and a
// BGP stream. The dominant signal is geographic: the countries whose
// prefixes were withdrawn around the anomaly should match the endpoint
// countries of the links the cable carries.
func RankSuspectCables(e *Environment, f LatencyFinding, msgs []bgp.Message) []CableSuspect {
	// Withdrawal geography near the anomaly.
	hits := map[string]float64{}
	var totalHits float64
	if f.Detected {
		from, to := f.ShiftAt.Add(-2*time.Hour), f.ShiftAt.Add(6*time.Hour)
		for _, m := range msgs {
			if m.Type != bgp.Withdraw || m.Time.Before(from) || !m.Time.Before(to) {
				continue
			}
			if cc, ok := e.World.Locate(m.Prefix.Addr()); ok {
				hits[cc]++
				totalHits++
			}
		}
	}
	// Corridor inferred from the shifted probes' country endpoints.
	var corridor geo.RegionSet
	for _, probe := range append(append([]string{}, f.Probes...), f.LostProbes...) {
		parts := splitProbeName(probe)
		for _, cc := range parts {
			if r, ok := geo.RegionOf(cc); ok {
				corridor = corridor.With(r)
			}
		}
	}

	maxLinks := 1
	for _, c := range e.Catalog.Cables() {
		if n := len(e.CrossMap.LinksOn(c.ID)); n > maxLinks {
			maxLinks = n
		}
	}

	var out []CableSuspect
	for _, c := range e.Catalog.Cables() {
		links := e.CrossMap.LinksOn(c.ID)
		s := CableSuspect{Cable: c.ID, LinksCarried: len(links)}

		// Geographic evidence: endpoint countries of carried links vs
		// withdrawal countries.
		var geoScore float64
		if totalHits > 0 {
			linkCountries := map[string]bool{}
			for _, id := range links {
				l, ok := e.World.LinkByID(id)
				if !ok {
					continue
				}
				ca, cb := e.World.LinkEndpoints(l)
				linkCountries[ca] = true
				linkCountries[cb] = true
			}
			var matched float64
			for cc := range linkCountries {
				matched += hits[cc]
				if hits[cc] > 0 {
					s.WithdrawalHits += int(hits[cc])
				}
			}
			geoScore = matched / totalHits
		}

		// Corridor membership.
		matches := (e.Catalog.Regions(c.ID) & corridor).Len()
		s.CorridorMatch = matches >= 2 || (corridor.Len() < 2 && matches >= 1)

		corridorScore := 0.0
		if s.CorridorMatch {
			corridorScore = 1.0
		}
		linkScore := float64(len(links)) / float64(maxLinks)
		s.Score = 0.6*geoScore + 0.2*corridorScore + 0.2*linkScore
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Cable < out[j].Cable
	})
	return out
}

// splitProbeName recovers the country codes embedded in campaign probe
// names of the form "GB-SG-3".
func splitProbeName(name string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '-' {
			part := name[start:i]
			if len(part) == 2 && part[0] >= 'A' && part[0] <= 'Z' {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}

// SynthesizeVerdict fuses the three evidence sources into a causation
// verdict. Exported so the expert baseline shares the same fusion rule.
func SynthesizeVerdict(f LatencyFinding, suspects []CableSuspect, correlation float64) Verdict {
	v := Verdict{
		StatisticalEvidence: f.Confidence,
		RoutingEvidence:     correlation,
	}
	if !f.Detected || len(suspects) == 0 {
		v.Explanation = "no significant latency anomaly detected; cable failure not established"
		return v
	}
	top := suspects[0]
	v.Cable = top.Cable
	v.InfraEvidence = top.Score
	// Separation between the top suspect and the runner-up strengthens
	// identification.
	separation := top.Score
	if len(suspects) > 1 {
		separation = top.Score - suspects[1].Score
	}
	v.Confidence = stats.CombineEvidence(
		0.9*v.StatisticalEvidence,
		0.8*v.InfraEvidence,
		0.7*v.RoutingEvidence,
	)
	v.CauseIsCableFailure = v.StatisticalEvidence > 0.3 && top.Score > 0.2 && correlation > 0.25
	if v.CauseIsCableFailure {
		v.Explanation = fmt.Sprintf(
			"latency shift of %.1f ms at %s (p=%.2g) correlates with withdrawal concentration %.2f; "+
				"infrastructure correlation ranks %s highest (score %.2f, margin %.2f)",
			f.DeltaMs, f.ShiftAt.Format(time.RFC3339), f.PValue, correlation, top.Cable, top.Score, separation)
	} else {
		v.Explanation = "evidence insufficient to establish a cable failure as the cause"
		v.Cable = ""
	}
	return v
}

// BuildTimeline assembles the unified cross-layer timeline of Case
// Study 3 from the contributing analyses, anchored at sc's failure
// time, or at now when no scenario was injected.
func BuildTimeline(sc *Scenario, now time.Time, rep *xaminer.ImpactReport, bundle CascadeBundle, bursts []bgp.Burst, anomaly *LatencyFinding) *Timeline {
	t := &Timeline{
		CablesFailed:  len(bundle.Cable.Failed),
		LinksLost:     rep.FailedLinks,
		ASesDegraded:  len(bundle.Stress.Degraded),
		CascadeRounds: len(bundle.Cable.Rounds),
		TopCountries:  rep.TopCountries(5),
	}
	base := now
	if sc != nil {
		base = sc.FailureAt
	}
	// Cable layer: failure rounds at synthetic offsets.
	for round, ids := range bundle.Cable.Rounds {
		at := base.Add(time.Duration(round) * 30 * time.Minute)
		for _, id := range ids {
			kind := "initial failure"
			if round > 0 {
				kind = fmt.Sprintf("overload cascade (round %d)", round)
			}
			t.Entries = append(t.Entries, TimelineEntry{At: at, Layer: "cable", What: fmt.Sprintf("cable %s: %s", id, kind)})
		}
	}
	// IP layer: aggregate loss.
	t.Entries = append(t.Entries, TimelineEntry{
		At: base, Layer: "ip",
		What: fmt.Sprintf("%d IP links lost across %d countries", rep.FailedLinks, len(rep.Countries)),
	})
	// AS layer: degradation waves, or the stress summary when no AS
	// crossed the degradation threshold.
	for w, wave := range bundle.Stress.Waves {
		at := base.Add(time.Duration(w+1) * 20 * time.Minute)
		t.Entries = append(t.Entries, TimelineEntry{
			At: at, Layer: "as",
			What: fmt.Sprintf("wave %d: %d ASes degraded", w+1, len(wave)),
		})
	}
	if len(bundle.Stress.Waves) == 0 {
		stressed := 0
		for _, s := range bundle.Stress.Stress {
			if s > 0 {
				stressed++
			}
		}
		t.Entries = append(t.Entries, TimelineEntry{
			At: base, Layer: "as",
			What: fmt.Sprintf("%d ASes under partial stress; none crossed the degradation threshold", stressed),
		})
	}
	// Routing layer: observed bursts.
	for _, b := range bursts {
		t.BurstsDetected++
		kind := "update burst"
		if b.WithdrawHeavy {
			kind = "withdrawal storm"
		}
		t.Entries = append(t.Entries, TimelineEntry{
			At: b.Start, Layer: "routing",
			What: fmt.Sprintf("%s: %d msgs (score %.1f)", kind, b.Messages, b.Score),
		})
	}
	// Measurement layer: latency anomaly.
	if anomaly != nil && anomaly.Detected {
		t.Entries = append(t.Entries, TimelineEntry{
			At: anomaly.ShiftAt, Layer: "measurement",
			What: fmt.Sprintf("latency shift +%.1f ms across %d probes", anomaly.DeltaMs, len(anomaly.Probes)),
		})
	}
	sort.SliceStable(t.Entries, func(i, j int) bool { return t.Entries[i].At.Before(t.Entries[j].At) })
	return t
}
