package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/nlq"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	sets := paramSets(nautilus.BuildCatalog())
	a, b, c := newGenerator(sets, 9), newGenerator(sets, 9), newGenerator(sets, 10)
	differs := false
	for i := range 2000 {
		ta, pa, _ := a.take()
		tb, pb, _ := b.take()
		tc, _, _ := c.take()
		if ta != tb || pa != pb {
			t.Fatalf("text %d differs under one seed: %q vs %q", i, ta, tb)
		}
		differs = differs || ta != tc
	}
	if !differs {
		t.Fatal("seeds 9 and 10 produced the same texts")
	}
}

func TestGeneratorNeverRepeatsAText(t *testing.T) {
	sets := paramSets(nautilus.BuildCatalog())
	g := newGenerator(sets, 3)
	// The index map is a bijection of [0, n): every (set, phrasing)
	// pair is handed out exactly once.
	seen := make([]bool, g.n)
	for i := range g.n {
		j := (g.a*i + g.b) % g.n
		if seen[j] {
			t.Fatalf("index %d maps to %d twice", i, j)
		}
		seen[j] = true
	}
	// And distinct phrasings of one core are distinct texts.
	texts := map[string]bool{}
	for f := range phrasings {
		texts[phrase(sets[0].core, f)] = true
	}
	if len(texts) != phrasings {
		t.Fatalf("%d phrasings give %d distinct texts", phrasings, len(texts))
	}
	for range g.n {
		if _, _, ok := g.take(); !ok {
			t.Fatal("generator ran out early")
		}
	}
	if _, _, ok := g.take(); ok {
		t.Fatal("generator handed out more texts than it has")
	}
}

// The generator must outlast every op a timed phase can record: each
// client's sample buffers are sized for the fastest run the benchmark
// expects, and an exhausted generator fails every later op.
func TestGeneratorOutlastsSampleCapacity(t *testing.T) {
	g := newGenerator(paramSets(nautilus.BuildCatalog()), 1)
	if need := uint64(maxClients * sampleCap); g.n < need {
		t.Fatalf("%d texts, but a timed phase can record %d ops", g.n, need)
	}
}

func TestNeutralWordingIsNeutral(t *testing.T) {
	forbidden := []string{"%", "days ago", "cause", "why", "cascad", "observed", "latency",
		// nlq's region vocabulary
		"europe", "asia", "america", "africa", "middle east", "oceania", "latam", "apac", "pacific", "gulf"}
	for _, c := range geo.Countries() {
		forbidden = append(forbidden, strings.ToLower(c.Name))
	}
	for _, r := range geo.AllRegions() {
		forbidden = append(forbidden, strings.ToLower(string(r)))
	}
	for _, list := range [][]string{openers, closers, signoffs, postscripts} {
		for _, w := range list {
			lw := strings.ToLower(w)
			for _, f := range forbidden {
				if strings.Contains(lw, f) {
					t.Errorf("neutral wording %q contains %q", w, f)
				}
			}
		}
	}
}

// parseView is a Spec without its raw text, which is the only field
// neutral wording may change.
func parseView(q string, cat *nautilus.Catalog) nlq.Spec {
	s := nlq.Parse(q, cat)
	s.Raw = ""
	return s
}

func TestEveryPhrasingParsesAlike(t *testing.T) {
	cat := nautilus.BuildCatalog()
	sets := paramSets(cat)
	if len(sets) != 81 {
		t.Fatalf("%d parameter sets, want 81 (44 cables, 21 region pairs, 12 disaster sets, 4 windows)", len(sets))
	}
	first := map[nlq.Intent]bool{}
	for i, ps := range sets {
		want := parseView(ps.core, cat)
		if want.Intent != ps.intent {
			t.Fatalf("set %d parses as %s, want %s: %q", i, want.Intent, ps.intent, ps.core)
		}
		// Every phrasing of the first set of each intent; a stride of
		// phrasings for the rest.
		stride := 97
		if !first[ps.intent] {
			first[ps.intent] = true
			stride = 1
		}
		t.Run(fmt.Sprintf("set%d", i), func(t *testing.T) {
			t.Parallel()
			for f := 0; f < phrasings; f += stride {
				text := phrase(ps.core, f)
				if got := parseView(text, cat); !reflect.DeepEqual(got, want) {
					t.Fatalf("phrasing %d parses differently:\n%q\ngot  %+v\nwant %+v", f, text, got, want)
				}
			}
		})
	}
}
