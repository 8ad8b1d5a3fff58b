package core

// Persistent cache snapshots: SaveSnapshot serializes a System's warm
// state — the queries whose plans are cached plus every step-cache
// entry the port-value table can represent — and LoadSnapshot restores it
// into a freshly built System, so a restarted server answers its
// first repeated query as a cache hit instead of re-executing the
// workflow.
//
// What is persisted, and how:
//
//   - Step results are encoded as port-value envelopes (portvalue.go;
//     the same closed tag↔type table the worker wire uses), keyed by
//     the raw step fingerprint. Entries holding values outside the
//     table are skipped — they simply re-execute once after restart.
//   - Plans are persisted as their query text, not their artifacts
//     (planning output holds unserializable state — quality-check
//     closures, capability handles). LoadSnapshot re-plans each query
//     through the deterministic planning agents; planning is the cheap
//     half, and the replay repopulates the plan cache and its compiled
//     artifacts at load time.
//   - Curation promotions are persisted in order: a composite is plain
//     data (its chain), so LoadSnapshot re-registers each one.
//
// Validation: the snapshot header carries a content digest of the
// world, the registry generation and size, the scenario digest, and
// the environment's (identity, epoch) fingerprint counters. Loading
// rejects any mismatch — serving stale results would be silent
// corruption — and on success *adopts* the saved identity counters so
// the persisted step fingerprints resolve (see
// Environment.adoptFingerprint).

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/netsim"
)

// snapshotVersion is bumped whenever the snapshot layout changes;
// loaders reject other versions.
const snapshotVersion = 1

// snapshotFile is the on-disk layout (JSON, one object).
type snapshotFile struct {
	Version int `json:"version"`
	// SavedAt is informational only; validation never consults it.
	SavedAt time.Time `json:"saved_at,omitempty"`
	// World is a content digest over the generated world (config,
	// topology, country assignment) — two worlds agree on it only if
	// they were generated from the same config and seed.
	World string `json:"world"`
	// RegistryGen and RegistrySize pin the catalog the cached state was
	// computed against, promotions included.
	RegistryGen  uint64 `json:"registry_generation"`
	RegistrySize int    `json:"registry_size"`
	// Promotions are the System's curated composites in promotion
	// order; the loader registers them before it checks the registry.
	Promotions []registrycurator.Promotion `json:"promotions,omitempty"`
	// EnvID and EnvEpoch are the environment fingerprint counters the
	// persisted step keys embed; the loader adopts them after
	// validation.
	EnvID    uint64 `json:"env_id"`
	EnvEpoch uint64 `json:"env_epoch"`
	// Scenario digests the injected measurement scenario ("" = none).
	Scenario string `json:"scenario,omitempty"`
	// Queries are the plan-cache contents, re-planned at load.
	Queries []string `json:"queries,omitempty"`
	// Steps are the step-cache contents: base64 raw fingerprint →
	// port-value output map.
	Steps []snapshotStep `json:"steps,omitempty"`
	// SkippedSteps counts cache entries the port-value table could not
	// represent (informational).
	SkippedSteps int `json:"skipped_steps,omitempty"`
}

type snapshotStep struct {
	Key string          `json:"key"`
	Out json.RawMessage `json:"out"`
}

// worldDigest fingerprints the generated world by content: the
// generation config (which embeds the seed) plus the full router and
// link inventory. Hashing topology rather than just counts means two
// different seeds can never validate against each other's snapshots.
func worldDigest(w *netsim.World) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|cfg=%+v|routers=%d|links=%d|ases=%d|", w.Cfg, len(w.Routers), len(w.IPLinks), len(w.ASes))
	for i := range w.Routers {
		r := &w.Routers[i]
		fmt.Fprintf(h, "r%d:%d:%s;", r.ID, r.ASN, r.Country)
	}
	for i := range w.IPLinks {
		l := &w.IPLinks[i]
		fmt.Fprintf(h, "l%d:%d-%d:%d;", l.ID, l.A, l.B, l.Kind)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioDigest fingerprints an injected scenario (or "" for nil):
// ground truth, window, and the sizes and first/last elements of the
// generated archive and stream. Scenarios are generated
// deterministically from their config, so agreement here means the
// same injection sequence produced them.
func scenarioDigest(sc *Scenario) string {
	if sc == nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "v1|cable=%s|failAt=%s|start=%s|end=%s|links=%v|",
		sc.TrueCable, sc.FailureAt.UTC().Format(time.RFC3339Nano),
		sc.Start.UTC().Format(time.RFC3339Nano), sc.End.UTC().Format(time.RFC3339Nano),
		sc.FailedLink)
	if a := sc.Archive; a != nil {
		fmt.Fprintf(h, "meas=%d|", len(a.Measurements))
		if n := len(a.Measurements); n > 0 {
			first, last := a.Measurements[0], a.Measurements[n-1]
			fmt.Fprintf(h, "m0=%s@%s:%.3f|mN=%s@%s:%.3f|",
				first.Probe, first.Time.UTC().Format(time.RFC3339Nano), first.RTTms,
				last.Probe, last.Time.UTC().Format(time.RFC3339Nano), last.RTTms)
		}
	}
	fmt.Fprintf(h, "msgs=%d", len(sc.Stream))
	return hex.EncodeToString(h.Sum(nil))
}

// SaveSnapshot writes the System's warm state to w: a versioned,
// fingerprint-stamped JSON document holding the curation promotions,
// the plan cache as query text and the step cache as port-value output
// maps. Entries whose values the port-value table cannot represent are
// skipped (counted in the header), never mis-encoded. Intended at drain time — concurrent
// serving is safe (each cache is walked under its shard locks) but the
// snapshot then reflects an instant somewhere during the walk.
func (s *System) SaveSnapshot(w io.Writer) error {
	ep := s.env.current()
	f := snapshotFile{
		Version:      snapshotVersion,
		SavedAt:      time.Now().UTC(),
		World:        worldDigest(s.env.World),
		Promotions:   s.Promotions(),
		RegistryGen:  s.reg.Generation(),
		RegistrySize: s.reg.Size(),
		EnvID:        ep.id,
		EnvEpoch:     ep.mutations,
		Scenario:     scenarioDigest(ep.scenario),
	}
	seen := map[string]bool{}
	for _, ent := range s.planCache.entries() {
		pe, ok := ent.val.(*planEntry)
		if !ok || pe.query == "" || seen[pe.query] {
			continue
		}
		seen[pe.query] = true
		f.Queries = append(f.Queries, pe.query)
	}
	sort.Strings(f.Queries)
	for _, ent := range s.stepCache.entries() {
		out, ok := ent.val.(map[string]any)
		if !ok {
			f.SkippedSteps++
			continue
		}
		pv, err := EncodePortValues(out)
		if err != nil {
			// A value outside the closed port-value table: cheap to
			// recompute after restart, dangerous to guess an encoding
			// for.
			f.SkippedSteps++
			continue
		}
		raw, err := json.Marshal(pv)
		if err != nil {
			return err
		}
		f.Steps = append(f.Steps, snapshotStep{
			Key: base64.StdEncoding.EncodeToString([]byte(ent.key)),
			Out: raw,
		})
	}
	sort.Slice(f.Steps, func(i, j int) bool { return f.Steps[i].Key < f.Steps[j].Key })
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// LoadSnapshot restores state saved by SaveSnapshot into this System.
// The snapshot must have been taken against an equivalent setup: same
// world content (config and seed), same registry generation and size
// once the saved promotions are registered, same injected scenario —
// any mismatch, a promotion the registry refuses or a step key that
// does not decode is rejected with an error and the System is left
// untouched, because serving another world's cached results would be
// silently wrong (a step output that does not decode is skipped). On
// success the environment adopts the saved fingerprint identity (the
// persisted step keys embed it), the saved composites are registered
// and listed in Promotions, step entries are inserted, and each saved
// query is re-planned to warm the plan cache and its compiled
// artifacts. Intended at boot, before serving traffic.
func (s *System) LoadSnapshot(r io.Reader) error {
	var f snapshotFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("core: snapshot decode: %w", err)
	}
	if f.Version != snapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", f.Version, snapshotVersion)
	}
	if got := worldDigest(s.env.World); f.World != got {
		return fmt.Errorf("core: snapshot world mismatch: snapshot %.12s…, this world %.12s… (different config or seed)", f.World, got)
	}
	// Register the saved composites on a copy first: Register validates
	// each chain, and a rejected load leaves the registry as it was.
	reg := s.reg.Clone()
	for _, p := range f.Promotions {
		if err := reg.Register(p.Capability); err != nil {
			return fmt.Errorf("core: snapshot promotion: %w", err)
		}
	}
	if gen := reg.Generation(); f.RegistryGen != gen {
		return fmt.Errorf("core: snapshot registry generation %d, this registry %d (catalog changed)", f.RegistryGen, gen)
	}
	if size := reg.Size(); f.RegistrySize != size {
		return fmt.Errorf("core: snapshot registry size %d, this registry %d (catalog changed)", f.RegistrySize, size)
	}
	ep := s.env.current()
	if got := scenarioDigest(ep.scenario); f.Scenario != got {
		return fmt.Errorf("core: snapshot scenario mismatch (snapshot %.12q, this environment %.12q)", f.Scenario, got)
	}
	// Decode every step before touching the environment or either
	// cache: a rejected load must leave the System as it was.
	type step struct {
		key string
		out map[string]any
	}
	steps := make([]step, 0, len(f.Steps))
	for _, st := range f.Steps {
		key, err := base64.StdEncoding.DecodeString(st.Key)
		if err != nil {
			return fmt.Errorf("core: snapshot step key: %w", err)
		}
		var pv map[string]PortValue
		if err := json.Unmarshal(st.Out, &pv); err != nil {
			continue
		}
		out, err := DecodePortValues(pv)
		if err != nil {
			// A tag this build doesn't know (snapshot from a newer
			// binary) or a value that cannot be an output: skip the
			// entry rather than fail the boot — it re-executes once.
			continue
		}
		steps = append(steps, step{key: string(key), out: out})
	}
	// Adopt the saved fingerprint identity, and register the saved
	// composites, before touching either cache so inserted step keys
	// and re-planned plan keys both resolve under them.
	if ep = s.env.adoptFingerprint(ep, f.EnvID, f.EnvEpoch); ep == nil {
		return fmt.Errorf("core: snapshot: the environment changed while it loaded")
	}
	for _, p := range f.Promotions {
		if err := s.reg.Register(p.Capability); err != nil {
			return fmt.Errorf("core: snapshot promotion: %w", err)
		}
	}
	s.mu.Lock()
	s.promotions = append(s.promotions, f.Promotions...)
	s.mu.Unlock()
	for _, st := range steps {
		s.stepCache.Put(st.key, st.out, estimateSize(st.out))
	}
	// Re-plan the saved queries with the cache bypassed and store each
	// entry under the key an ask would probe, so the restore counts no
	// hit or miss. The generation is read before planning, as plan reads
	// it. The planning agents are deterministic and cheap relative to
	// execution; a query that no longer plans (e.g. against a trimmed
	// registry subset — already screened by the generation check, but
	// belt and braces) just stays cold.
	for _, q := range f.Queries {
		key := string(appendPlanKey(nil, q, s.reg.Generation(), ep.full))
		if pe, _, err := s.plan(context.Background(), q, ep, true, &emitter{query: q}, &Report{Query: q}); err == nil {
			s.putPlan(key, pe)
		}
	}
	return nil
}

// SaveSnapshotFile writes the System's snapshot to path so that a crash
// at any instant leaves the previous file or the new one whole: it
// writes a temporary file beside path (path + ".tmp"), syncs it to
// disk, then renames it over path. A failed save removes the temporary
// file and leaves path as it was.
func (s *System) SaveSnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = s.SaveSnapshot(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadSnapshotFile restores the snapshot at path with LoadSnapshot. A
// missing file is an error matching fs.ErrNotExist — a first boot, for
// callers that treat snapshots as an accelerator.
func (s *System) LoadSnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.LoadSnapshot(f)
}
