package core

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"
)

// FuzzLoadSnapshot loads arbitrary bytes into a fresh System: no input
// may panic, and a rejected load must leave the System untouched — the
// environment's fingerprint and the registry generation unchanged and
// both caches empty.
func FuzzLoadSnapshot(f *testing.F) {
	env := testEnv(f, true)
	reg, err := BuiltinRegistry().Subset(CS1RegistryNames()...)
	if err != nil {
		f.Fatal(err)
	}
	donor, err := NewSystem(env.Clone(), reg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := donor.Ask(ctx, queryCS1, AskWithoutCuration()); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.SaveSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	snap := buf.Bytes()
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	// Each corruption edits a fresh copy of the snapshot; last is its
	// last step.
	for _, corrupt := range []func(doc, last map[string]any){
		func(_, last map[string]any) { last["key"] = "not base64!" },
		func(_, last map[string]any) {
			last["out"] = map[string]any{"ips": map[string]any{"type": "no.such.Type", "value": 1}}
		},
		func(_, last map[string]any) {
			last["out"] = map[string]any{"report": map[string]any{"type": "*xaminer.ImpactReport", "value": nil}}
		},
		func(doc, _ map[string]any) { doc["version"] = 2 },
	} {
		var doc map[string]any
		if err := json.Unmarshal(snap, &doc); err != nil {
			f.Fatal(err)
		}
		steps := doc["steps"].([]any)
		corrupt(doc, steps[len(steps)-1].(map[string]any))
		b, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(regexp.MustCompile(`"world":"[0-9a-f]+"`).ReplaceAll(snap, []byte(`"world":"00"`)))

	// A donor whose two asks promoted composites: its snapshot, one
	// whose promotions register but whose generation no longer matches,
	// and one whose promotion chains an unregistered capability.
	curated, err := NewSystem(env.Clone(), reg.Clone())
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range []string{queryCS1, "Identify the impact at a country level due to SeaMeWe-4 cable failure"} {
		if _, err := curated.Ask(ctx, q); err != nil {
			f.Fatal(err)
		}
	}
	buf.Reset()
	if err := curated.SaveSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	promoted := bytes.Clone(buf.Bytes())
	f.Add(promoted)
	f.Add(regexp.MustCompile(`"registry_generation":[0-9]+`).ReplaceAll(promoted, []byte(`"registry_generation":1`)))
	f.Add(bytes.Replace(promoted, []byte(`"capability":"nautilus.`), []byte(`"capability":"no.such.`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := NewSystem(env.Clone(), reg.Clone())
		if err != nil {
			t.Fatal(err)
		}
		fp, gen := sys.Environment().Fingerprint(), sys.Registry().Generation()
		if err := sys.LoadSnapshot(bytes.NewReader(data)); err == nil {
			return
		}
		if got := sys.Environment().Fingerprint(); got != fp {
			t.Fatalf("rejected load moved the fingerprint %s → %s", fp, got)
		}
		if got := sys.Registry().Generation(); got != gen {
			t.Fatalf("rejected load moved the registry generation %d → %d", gen, got)
		}
		if st := sys.CacheStats(); st.Plan.Entries != 0 || st.Step.Entries != 0 {
			t.Fatalf("rejected load left %d plans and %d steps cached", st.Plan.Entries, st.Step.Entries)
		}
	})
}
