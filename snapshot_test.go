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
	"strings"
	"testing"

	"arachnet"
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

	// The restored system's first ask of a snapshotted query must be
	// fully warm: a plan-cache hit, every step a cache hit, and a
	// report equal to the donor's warm replay.
	before := restored.CacheStats()
	rep, err := restored.Ask(ctx, cs1, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	after := restored.CacheStats()
	if after.Plan.Hits <= before.Plan.Hits {
		t.Errorf("restored first ask missed the plan cache: %+v → %+v", before.Plan, after.Plan)
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
