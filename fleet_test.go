package arachnet_test

// Fleet determinism: sharded scatter-gather execution must be an
// implementation detail. A report served by a fleet of four must be
// byte-identical (modulo wall-clock timings) to one served by a
// degenerate fleet of one, and its outputs identical to inline
// execution — for the fan-out CS1 workflow whose middle steps
// actually scatter. A -race hammer then drives concurrent Asks
// through a fleet while the environment epoch advances underneath.

import (
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"sync"
	"testing"

	"arachnet"
	"arachnet/internal/fleet"
)

// attachFleet shards sys's world over an in-process fleet of n workers
// (the stand-in for a remote fleet) and closes it when the test ends;
// n=0 leaves sys executing inline.
func attachFleet(t testing.TB, sys *arachnet.System, n int) {
	t.Helper()
	if n == 0 {
		return
	}
	f, err := fleet.New(sys.Environment().World, n)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetFleet(f)
	t.Cleanup(f.Close)
}

// cs1FleetSystem builds a system over the paper's restricted CS1
// registry (which plans the extract_ips → locate_ips fan-out chain)
// with an n-worker fleet; n=0 means inline execution.
func cs1FleetSystem(t testing.TB, seed uint64, n int) *arachnet.System {
	t.Helper()
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arachnet.New(arachnet.WithSmallWorld(seed), arachnet.WithRegistry(sub))
	if err != nil {
		t.Fatal(err)
	}
	attachFleet(t, sys, n)
	return sys
}

var provenanceDuration = regexp.MustCompile(`in [0-9][^ ]*$`)

// normalizedReport strips everything wall-clock-dependent from a
// report and returns its canonical JSON: elapsed and per-step
// durations zeroed, provenance timing text masked.
func normalizedReport(t *testing.T, rep *arachnet.Report) []byte {
	t.Helper()
	rep.Elapsed = 0
	if rep.Result != nil {
		for i := range rep.Result.Steps {
			rep.Result.Steps[i].Duration = 0
		}
		for i, line := range rep.Result.Provenance {
			rep.Result.Provenance[i] = provenanceDuration.ReplaceAllString(line, "in 0s")
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetReportByteIdentical is the acceptance gate: identically
// seeded fleet-1 and fleet-4 systems must serve byte-identical
// reports for the scattering CS1 query.
func TestFleetReportByteIdentical(t *testing.T) {
	const seed, query = 42, "Identify the impact at a country level due to SeaMeWe-5 cable failure"

	sys1 := cs1FleetSystem(t, seed, 1)
	sys4 := cs1FleetSystem(t, seed, 4)
	rep1, err := sys1.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := sys4.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}

	// The fan-out steps must actually have scattered on the 4-shard
	// fleet, or this test proves nothing.
	if st := sys4.Fleet().Stats(); st.Scattered == 0 {
		t.Fatalf("no steps scattered on the 4-shard fleet: %+v", st)
	}
	remote := 0
	for _, s := range rep4.Result.Steps {
		if s.Remote {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no steps marked Remote in the fleet-4 report")
	}

	j1, j4 := normalizedReport(t, rep1), normalizedReport(t, rep4)
	if string(j1) != string(j4) {
		t.Errorf("fleet-1 and fleet-4 reports differ:\nfleet-1: %s\nfleet-4: %s", j1, j4)
	}
}

// TestFleetMatchesInline checks the scatter-gather output against
// plain inline execution: same outputs, same provenance shape. (Step
// Remote flags legitimately differ, so the comparison is on outputs
// and the generated solution, not whole-report bytes.)
func TestFleetMatchesInline(t *testing.T) {
	const seed, query = 42, "Identify the impact at a country level due to SeaMeWe-5 cable failure"

	sys0 := cs1FleetSystem(t, seed, 0)
	sys4 := cs1FleetSystem(t, seed, 4)
	rep0, err := sys0.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := sys4.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	out0, err := json.Marshal(rep0.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	out4, err := json.Marshal(rep4.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if string(out0) != string(out4) {
		t.Errorf("inline and fleet-4 outputs differ:\ninline: %s\nfleet:  %s", out0, out4)
	}
	if len(rep0.Result.Steps) != len(rep4.Result.Steps) {
		t.Errorf("step count differs: inline %d, fleet %d",
			len(rep0.Result.Steps), len(rep4.Result.Steps))
	}
}

// TestFleetDispatchesInsideComposites: Compile expands a composite
// into its chain, so the fleet scatters the fan-out steps inside it.
// After two cable questions promote the CS1 composites, the third
// plans through composite.links_on_cables_to_country_rollup_4; its
// inner extract_ips and locate_ips are dispatched, and the answer is
// the inline one.
func TestFleetDispatchesInsideComposites(t *testing.T) {
	const seed, composite = 42, "composite.links_on_cables_to_country_rollup_4"
	sys0 := cs1FleetSystem(t, seed, 0)
	sys4 := cs1FleetSystem(t, seed, 4)
	var rep0, rep4 *arachnet.Report
	for _, cable := range []string{"SeaMeWe-5", "SeaMeWe-4", "AAE-1"} {
		q := "Identify the impact at a country level due to " + cable + " cable failure"
		var err error
		if rep0, err = sys0.Ask(ctx, q); err != nil {
			t.Fatal(err)
		}
		if rep4, err = sys4.Ask(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	id := ""
	for _, s := range rep4.Design.Chosen.Steps {
		if s.Capability == composite {
			id = s.ID
		}
	}
	if id == "" {
		t.Fatalf("the third cable question does not plan through %s: %v", composite, rep4.Design.Chosen.CapabilityNames())
	}
	var remote []string
	for _, st := range rep4.Result.Steps {
		if st.Remote {
			remote = append(remote, st.ID+" "+st.Capability)
		}
	}
	if want := []string{id + "_2 nautilus.extract_ips", id + "_3 geo.locate_ips"}; !slices.Equal(remote, want) {
		t.Errorf("dispatched %v, want the composite's inner %v", remote, want)
	}
	out0, err := json.Marshal(rep0.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	out4, err := json.Marshal(rep4.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if string(out0) != string(out4) {
		t.Errorf("inline and fleet-4 outputs differ:\ninline: %s\nfleet:  %s", out0, out4)
	}
}

// TestFleetFullRegistryMatchesInline exercises the full-registry CS1
// path — planned through the aggregate step xaminer.impact_from_links,
// which has its own scatter spec — and checks the scattered result
// against inline execution.
func TestFleetFullRegistryMatchesInline(t *testing.T) {
	const seed, query = 42, "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	build := func(n int) *arachnet.System {
		sys, err := arachnet.New(arachnet.WithSmallWorld(seed))
		if err != nil {
			t.Fatal(err)
		}
		attachFleet(t, sys, n)
		return sys
	}
	sys0, sys4 := build(0), build(4)
	rep0, err := sys0.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := sys4.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	if st := sys4.Fleet().Stats(); st.Scattered == 0 {
		t.Fatalf("full-registry plan scattered nothing: %+v", st)
	}
	out0, err := json.Marshal(rep0.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	out4, err := json.Marshal(rep4.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if string(out0) != string(out4) {
		t.Errorf("inline and fleet-4 full-registry outputs differ:\ninline: %s\nfleet:  %s", out0, out4)
	}
}

// TestFleetArchiveWindowMatchesInline exercises the scenario-reading
// scatter path: traceroute.archive_window has no bound fan-out input —
// its data lives in the injected scenario — so its Split shards the
// archive's probes by source country and its Merge replays the
// coordinator archive's measurement order over the gathered partials.
// The scattered CS4 forensic report must match inline execution
// exactly, and so must no-cache asks before and after a second
// injection, with no worker cache hit.
func TestFleetArchiveWindowMatchesInline(t *testing.T) {
	const seed = 42
	const query = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."
	build := func(n int) *arachnet.System {
		sys, err := arachnet.New(
			arachnet.WithSmallWorld(seed),
			arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}),
		)
		if err != nil {
			t.Fatal(err)
		}
		attachFleet(t, sys, n)
		return sys
	}
	sys0, sys4 := build(0), build(4)
	rep0, err := sys0.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := sys4.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}

	// The archive-window step must actually have gone through the
	// fleet, or this proves nothing about the scenario-reading spec.
	archiveRemote := false
	for _, s := range rep4.Result.Steps {
		if s.Capability == "traceroute.archive_window" && s.Remote {
			archiveRemote = true
		}
	}
	if !archiveRemote {
		t.Fatal("traceroute.archive_window did not execute remotely on the fleet")
	}
	if st := sys4.Fleet().Stats(); st.Scattered == 0 {
		t.Fatalf("nothing scattered on the 4-shard fleet: %+v", st)
	}

	out0, err := json.Marshal(rep0.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	out4, err := json.Marshal(rep4.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if string(out0) != string(out4) {
		t.Errorf("inline and fleet-4 forensic outputs differ:\ninline: %s\nfleet:  %s", out0, out4)
	}
	if len(rep0.Result.Steps) != len(rep4.Result.Steps) {
		t.Errorf("step count differs: inline %d, fleet %d",
			len(rep0.Result.Steps), len(rep4.Result.Steps))
	}

	// A no-cache ask must compute afresh on the workers too: before and
	// after a second scenario injection, no worker may serve a cached
	// partial and the fleet's values must match inline execution.
	workerHits := func() (n uint64) {
		for _, sh := range sys4.Fleet().Stats().Shards {
			n += sh.CacheHits
		}
		return n
	}
	hitsBefore := workerHits()
	for _, inject := range []bool{false, true} {
		if inject {
			for _, sys := range []*arachnet.System{sys0, sys4} {
				if err := sys.Environment().InjectCableFailureScenario(arachnet.ScenarioConfig{Seed: 6}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var vals [2][]byte
		for i, sys := range []*arachnet.System{sys0, sys4} {
			rep, err := sys.Ask(ctx, query, arachnet.AskWithoutCuration(), arachnet.AskNoCache())
			if err != nil {
				t.Fatal(err)
			}
			if vals[i], err = json.Marshal(rep.Result.Values); err != nil {
				t.Fatal(err)
			}
		}
		if string(vals[0]) != string(vals[1]) {
			t.Errorf("no-cache values differ (second injection %v):\ninline: %s\nfleet:  %s", inject, vals[0], vals[1])
		}
	}
	if hits := workerHits() - hitsBefore; hits != 0 {
		t.Errorf("no-cache asks served %d worker cache hits", hits)
	}
}

// TestFleetConcurrentAsks hammers a 4-shard fleet with concurrent
// asks while the environment epoch advances underneath (scenario
// injection mid-run) — the -race job's fleet workout. Results are
// not compared across epochs; the test asserts only that every ask
// succeeds and the fleet stays coherent.
func TestFleetConcurrentAsks(t *testing.T) {
	sys := cs1FleetSystem(t, 42, 4)
	queries := []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact at a country level due to SeaMeWe-4 cable failure",
		"Identify the impact at a country level due to AAE-1 cable failure",
	}
	askers, rounds := 8, 5
	if testing.Short() {
		askers, rounds = 4, 2
	}

	var wg sync.WaitGroup
	errc := make(chan error, askers*rounds+rounds)
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := queries[(g+r)%len(queries)]
				if _, err := sys.Ask(ctx, q, arachnet.AskWithoutCuration()); err != nil {
					errc <- fmt.Errorf("asker %d round %d: %w", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			sc := arachnet.ScenarioConfig{Seed: uint64(100 + r)}
			if err := sys.Environment().InjectCableFailureScenario(sc); err != nil {
				errc <- fmt.Errorf("inject round %d: %w", r, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := sys.Fleet().Stats()
	if st.Scattered+st.ShardLocal == 0 {
		t.Errorf("fleet handled no steps under concurrency: %+v", st)
	}
	var executed uint64
	for _, sh := range st.Shards {
		executed += sh.Executed
	}
	if executed == 0 {
		t.Error("no worker executed any step")
	}
}
