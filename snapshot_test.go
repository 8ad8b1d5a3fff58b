package arachnet_test

// Persistent cache snapshots: a warm System's state written with
// SaveSnapshot must restore into an identically built System so its
// first repeated query is served from cache (plan hit, step hits,
// report equal to the donor's warm report), and LoadSnapshot must
// reject any snapshot taken against a different world, registry or
// scenario — restoring those would be silent corruption.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arachnet"
	"arachnet/internal/eval"
)

// warmSystem builds a small-world system with a scenario and warms it
// on the given queries (curation off keeps the registry generation
// stable, so the snapshot validates against a fresh twin).
func warmSystem(t *testing.T, seed uint64, queries ...string) *arachnet.System {
	t.Helper()
	sys, err := arachnet.New(
		arachnet.WithSmallWorld(seed),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := sys.Ask(ctx, q, arachnet.AskWithoutCuration()); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestSnapshotRoundTrip(t *testing.T) {
	const (
		cs1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
		cs4 = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."
	)
	donor := warmSystem(t, 42, cs1, cs4)
	warmRep, err := donor.Ask(ctx, cs1, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := donor.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty snapshot")
	}

	restored := warmSystem(t, 42) // identical build, stone cold
	if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// The load fills the plan cache without probing it, so it counts
	// no hit or miss. The restored system's first ask of a snapshotted
	// query must be fully warm: a plan-cache hit, every step a cache
	// hit, and a report equal to the donor's warm replay.
	before := restored.CacheStats()
	if before.Plan.Hits != 0 || before.Plan.Misses != 0 {
		t.Errorf("the load counted plan-cache probes: %+v", before.Plan)
	}
	rep, err := restored.Ask(ctx, cs1, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	after := restored.CacheStats()
	if after.Plan.Hits != 1 || after.Plan.Misses != 0 {
		t.Errorf("restored first ask: plan cache %+v, want 1 hit and 0 misses", after.Plan)
	}
	for _, st := range rep.Result.Steps {
		if !st.Cached {
			t.Errorf("restored step %s re-executed instead of hitting the snapshot", st.ID)
		}
	}
	jw, jr := normalizedReport(t, warmRep), normalizedReport(t, rep)
	if string(jw) != string(jr) {
		t.Errorf("restored report differs from donor's warm report:\ndonor:    %s\nrestored: %s", jw, jr)
	}
}

// TestSnapshotMatchesLiveCorpus is snapshot-restored ≡ live over every
// question of eval.Corpus with curation off: a System on small world 7
// that asked the whole corpus, curating as it went, saves a snapshot,
// which restores into a fresh twin, re-planning every saved question.
// Then, before any scenario and after injections 5 and 6, each
// question must fail, or answer, on the twin exactly as on the live
// System.
func TestSnapshotMatchesLiveCorpus(t *testing.T) {
	build := func() *arachnet.System {
		sys, err := arachnet.New(arachnet.WithSmallWorld(7))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	live := build()
	for _, q := range eval.Corpus() {
		_, _ = live.Ask(ctx, q) // a question with no answer fails here as below
	}
	var buf bytes.Buffer
	if err := live.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := build()
	if err := restored.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if lg, rg := live.Registry().Generation(), restored.Registry().Generation(); lg != rg {
		t.Fatalf("registry generation: live %d, restored %d", lg, rg)
	}
	for _, seed := range []uint64{0, 5, 6} {
		if seed != 0 {
			for _, sys := range []*arachnet.System{live, restored} {
				if err := sys.Environment().InjectCableFailureScenario(arachnet.ScenarioConfig{Seed: seed}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range eval.Corpus() {
			repL, errL := live.Ask(ctx, q, arachnet.AskWithoutCuration())
			repR, errR := restored.Ask(ctx, q, arachnet.AskWithoutCuration())
			if fmt.Sprint(errL) != fmt.Sprint(errR) {
				t.Errorf("scenario %d, %.60q: live and restored errors differ:\nlive:     %v\nrestored: %v", seed, q, errL, errR)
				continue
			}
			if errL != nil {
				continue
			}
			if jl, jr := answerJSON(t, repL), answerJSON(t, repR); string(jl) != string(jr) {
				t.Errorf("scenario %d, %.60q: live and restored answers differ:\nlive:     %s\nrestored: %s", seed, q, jl, jr)
			}
		}
		if seed == 0 {
			if st := restored.CacheStats().Plan; st.Hits == 0 {
				t.Errorf("no question was served from the restored plans: %+v", st)
			}
		}
	}
}

// TestSnapshotRestoresPromotions: two default asks promote a
// composite, and a snapshot taken after it restores into a twin that
// never curated. The twin registers the composite, reaches the donor's
// registry generation, lists the promotion, and answers the repeated
// query from cache exactly as the donor does.
func TestSnapshotRestoresPromotions(t *testing.T) {
	const (
		q1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
		q2 = "Identify the impact at a country level due to SeaMeWe-4 cable failure"
	)
	donor, err := arachnet.New(arachnet.WithSmallWorld(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{q1, q2} {
		if _, err := donor.Ask(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	promos := donor.Promotions()
	if len(promos) == 0 {
		t.Fatal("two asks promoted nothing")
	}
	warmRep, err := donor.Ask(ctx, q1, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	twin, err := arachnet.New(arachnet.WithSmallWorld(42))
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := twin.Registry().Generation(), donor.Registry().Generation(); got != want {
		t.Errorf("twin registry generation %d, donor %d", got, want)
	}
	restored := twin.Promotions()
	if len(restored) != len(promos) {
		t.Fatalf("twin lists %d promotions, donor %d", len(restored), len(promos))
	}
	for i := range promos {
		if restored[i].Capability.Name != promos[i].Capability.Name {
			t.Errorf("promotion %d: twin %s, donor %s", i, restored[i].Capability.Name, promos[i].Capability.Name)
		}
	}
	rep, err := twin.Ask(ctx, q1, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	if hits := twin.CacheStats().Plan.Hits; hits == 0 {
		t.Error("twin's first ask missed the plan cache")
	}
	for _, st := range rep.Result.Steps {
		if !st.Cached {
			t.Errorf("twin step %s re-executed instead of hitting the snapshot", st.ID)
		}
	}
	jw, jr := normalizedReport(t, warmRep), normalizedReport(t, rep)
	if string(jw) != string(jr) {
		t.Errorf("twin report differs from donor's warm report:\ndonor: %s\ntwin:  %s", jw, jr)
	}
}

func TestSnapshotRejectsMismatches(t *testing.T) {
	const cs1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	donor := warmSystem(t, 42, cs1)
	var buf bytes.Buffer
	if err := donor.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// The donor's snapshot with its last step key no longer base64.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	steps := doc["steps"].([]any)
	steps[len(steps)-1].(map[string]any)["key"] = "not base64!"
	badKey, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		label string
		build func(t *testing.T) *arachnet.System
		want  string // substring of the rejection error
		snap  []byte // nil loads the donor's snapshot
	}{
		{"different seed", func(t *testing.T) *arachnet.System {
			return warmSystem(t, 43)
		}, "world", nil},
		{"trimmed registry", func(t *testing.T) *arachnet.System {
			sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := arachnet.New(
				arachnet.WithSmallWorld(42),
				arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}),
				arachnet.WithRegistry(sub),
			)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, "registry", nil},
		{"no scenario", func(t *testing.T) *arachnet.System {
			sys, err := arachnet.New(arachnet.WithSmallWorld(42))
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, "scenario", nil},
		{"corrupt step key", func(t *testing.T) *arachnet.System {
			return warmSystem(t, 42)
		}, "step key", badKey},
	}
	for _, tc := range cases {
		sys := tc.build(t)
		snap := tc.snap
		if snap == nil {
			snap = buf.Bytes()
		}
		err := sys.LoadSnapshot(bytes.NewReader(snap))
		if err == nil {
			t.Errorf("%s: snapshot accepted, want rejection", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejection %q does not mention %q", tc.label, err, tc.want)
		}
		// A rejected load must leave the system cold and serviceable.
		rep, askErr := sys.Ask(ctx, cs1, arachnet.AskWithoutCuration())
		if askErr != nil {
			t.Errorf("%s: system unserviceable after rejected load: %v", tc.label, askErr)
			continue
		}
		for _, st := range rep.Result.Steps {
			if st.Cached {
				t.Errorf("%s: step %s cached after rejected load — state leaked", tc.label, st.ID)
			}
		}
	}
}

// TestSnapshotSkipsNoStep: every step output of the four case studies
// on the full registry, and of CS1 on the CS1 registry, has a
// port-value type, so a snapshot persists every cached step.
func TestSnapshotSkipsNoStep(t *testing.T) {
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	cs1, err := arachnet.New(
		arachnet.WithSmallWorld(42),
		arachnet.WithScenario(arachnet.ScenarioConfig{Seed: 5}),
		arachnet.WithRegistry(sub),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs1.Ask(ctx, caseQueries[0], arachnet.AskWithoutCuration()); err != nil {
		t.Fatal(err)
	}
	for label, sys := range map[string]*arachnet.System{
		"four case studies, full registry": warmSystem(t, 42, caseQueries...),
		"CS1, CS1 registry":                cs1,
	} {
		var buf bytes.Buffer
		if err := sys.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		var f struct {
			Steps   []json.RawMessage `json:"steps"`
			Skipped int               `json:"skipped_steps"`
		}
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		cached := sys.CacheStats().Step.Entries
		if f.Skipped != 0 || len(f.Steps) != cached || cached == 0 {
			t.Errorf("%s: snapshot holds %d steps and skipped %d, of %d cached", label, len(f.Steps), f.Skipped, cached)
		}
	}
}

// TestSnapshotFileRoundTrip: SaveSnapshotFile writes a snapshot that
// LoadSnapshotFile restores warm and leaves no temporary file behind;
// loading a missing file is an fs.ErrNotExist error; and a save that
// fails — here a directory sits where the temporary file would go —
// leaves the previous snapshot as it was.
func TestSnapshotFileRoundTrip(t *testing.T) {
	const cs1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	donor := warmSystem(t, 42, cs1)
	if err := donor.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cache.snap" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory after save holds %v, want only cache.snap", names)
	}

	restored := warmSystem(t, 42)
	if err := restored.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Ask(ctx, cs1, arachnet.AskWithoutCuration()); err != nil {
		t.Fatal(err)
	}
	if st := restored.CacheStats().Plan; st.Hits != 1 || st.Misses != 0 {
		t.Errorf("first ask after a file restore: plan cache %+v, want 1 hit and 0 misses", st)
	}

	if err := restored.LoadSnapshotFile(filepath.Join(dir, "missing.snap")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("loading a missing file: err = %v, want fs.ErrNotExist", err)
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := warmSystem(t, 42).SaveSnapshotFile(path); err == nil {
		t.Fatal("a save over a directory at the temporary path succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a failed save changed the previous snapshot")
	}
	if fi, err := os.Stat(path + ".tmp"); err != nil || !fi.IsDir() {
		t.Errorf("a failed save removed what it did not create: %v", err)
	}
}
