package solutionweaver_test

import (
	"testing"

	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/core"
	"arachnet/internal/registry"
)

// TestAppendCodeAllocs pins a listing rendered into a buffer with room
// at zero allocations for each case study (the first four plans of the
// corpus). It runs only without -short.
func TestAppendCodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	for i, p := range planCorpus(t)[:4] {
		buf := make([]byte, 0, 2*len(p.solution.Code()))
		allocs := testing.AllocsPerRun(50, func() { buf = p.solution.AppendCode(buf[:0]) })
		if allocs != 0 {
			t.Errorf("CS%d: AppendCode allocates %.1f/op, want 0", i+1, allocs)
		}
	}
}

// TestListingSurvivesRegistryGrowth weaves the case studies on a
// builtin registry, takes their listings, then registers on that
// registry every composite the curated corpus promoted: each listing,
// and its LoC, rendered again must equal the first render, since a
// Solution renders from the registry it was woven against whenever it
// is read.
func TestListingSurvivesRegistryGrowth(t *testing.T) {
	plans := planCorpus(t)
	var curated *registry.Registry
	for _, p := range plans {
		if p.regName == "curated" {
			curated = p.reg
			break
		}
	}
	reg := core.BuiltinRegistry()
	var sols []*solutionweaver.Solution
	var codes []string
	var locs []int
	for _, p := range plans[:4] {
		sol, err := solutionweaver.New().Weave(p.design.Chosen, reg)
		if err != nil {
			t.Fatal(err)
		}
		sols, codes, locs = append(sols, sol), append(codes, sol.Code()), append(locs, sol.LoC())
	}
	gen := reg.Generation()
	for _, c := range curated.All() {
		if c.Composite {
			if err := reg.Register(*c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reg.Generation() == gen {
		t.Fatal("the curated corpus promoted no composite")
	}
	for i, sol := range sols {
		if got := sol.Code(); got != codes[i] {
			t.Errorf("CS%d: listing changed once the registry grew\nnow:   %.300q\nfirst: %.300q", i+1, got, codes[i])
		}
		if got := sol.LoC(); got != locs[i] {
			t.Errorf("CS%d: LoC %d once the registry grew, %d at first", i+1, got, locs[i])
		}
	}
}
