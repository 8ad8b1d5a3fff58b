package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"testing"
)

// runOps sets a workload up on a fresh deployment and runs n of its
// ops through the output check.
func runOps(t *testing.T, workload string, ref *reference, n int, corrupt bool) *recorder {
	t.Helper()
	d, mx, err := setUp(workload, ref, 1)
	if err != nil {
		t.Fatalf("set-up: %v", err)
	}
	t.Cleanup(func() {
		if err := tearDown(d, mx); err != nil {
			t.Errorf("tear-down: %v", err)
		}
	})
	if corrupt {
		a := mx.(*askMix)
		a.want = slices.Clone(a.want)
		for i, w := range a.want {
			a.want[i] = &expected{canonical: corrupted(t, w.canonical)}
		}
	}
	rec := &recorder{}
	for range n {
		mx.op(0, rec)
	}
	if err := mx.finish(rec); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return rec
}

// corrupted returns canonical outputs with one extra key.
func corrupted(t *testing.T, outputs []byte) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(outputs, &m); err != nil {
		t.Fatal(err)
	}
	m["corrupted"] = json.RawMessage(`1`)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cascadeCaseStudy is the case study that, once curation has promoted
// its composites, answers differently from the curation-off reference.
const cascadeCaseStudy = 2

func TestWorkloadsRunAHandfulOfOps(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			ops := 6
			if w == "monitor" {
				ops = 2
			}
			rec := runOps(t, w, ref, ops, false)
			mismatches := 0
			if w == "curated" {
				// Client 0's sequence: the known divergence, counted.
				order := newAskMix(nil, ref, 1, false, true).order
				for i := range ops {
					if order[i%len(order)] == cascadeCaseStudy {
						mismatches++
					}
				}
			}
			if rec.attempted != ops || rec.failed != mismatches || rec.mismatched != mismatches {
				t.Fatalf("%d attempted, %d failed, %d mismatched (want %d); first failure: %s",
					rec.attempted, rec.failed, rec.mismatched, mismatches, rec.firstErr)
			}
			samples := ops
			if w == "monitor" {
				samples *= len(caseStudies) // one per subscription delivery
			}
			if len(rec.lat) != samples {
				t.Fatalf("%d samples, want %d", len(rec.lat), samples)
			}
		})
	}
}

func TestOutputCheckCatchesCorruptedReference(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	rec := runOps(t, "warm", ref, 4, true)
	if rec.mismatched != 4 || rec.failed != 4 {
		t.Fatalf("corrupted reference: %d mismatched, %d failed of %d, want all", rec.mismatched, rec.failed, rec.attempted)
	}
}

func TestOutputCheckComparesValuesNotLayout(t *testing.T) {
	want := &expected{canonical: []byte(`{"a":[1,2],"b":{"c":"x"}}`)}
	if !want.matches([]byte(`{"query":"q","outputs":{"a":[1,2],"b":{"c":"x"}},"elapsed_us":3}`)) {
		t.Fatal("the canonical encoding reported as a mismatch")
	}
	if want.served.Load() != nil {
		t.Fatal("the canonical encoding was decoded")
	}
	body := []byte(`{"query":"q","outputs": {"b":{"c":"x"},"a":[1, 2]},"elapsed_us":3}`)
	// Both clients may be first to see the other layout.
	var wg sync.WaitGroup
	for range maxClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !want.matches(body) {
				t.Error("same values in another layout reported as a mismatch")
			}
		}()
	}
	wg.Wait()
	// The other layout is now compared as bytes.
	if s := want.served.Load(); s == nil || string(*s) != `{"b":{"c":"x"},"a":[1, 2]}` {
		t.Fatalf("served encoding not remembered: %v", s)
	}
	if !want.matches(body) {
		t.Fatal("the remembered encoding reported as a mismatch")
	}
	if want.matches([]byte(`{"outputs":{"a":[1,2],"b":{"c":"y"}}}`)) {
		t.Fatal("a changed value matched")
	}
	if want.matches([]byte(`{"outputs":{"b":{"c":"x"},"a":[1, 2],"d":0}}`)) {
		t.Fatal("the remembered encoding followed by another key matched")
	}
	if want.matches([]byte(`{"error":"boom"}`)) {
		t.Fatal("a response without outputs matched")
	}
}

// Every capability family the per-layer metrics name runs in the texts
// each workload's traced run times them on, whatever the seed.
func TestCapabilityCostsCoverEveryFamily(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"warm", "novel"} {
		texts := newAskMix(nil, ref, 1, w == "novel", false).inputs().capTexts
		if w == "novel" && len(texts) != len(ref.sets) {
			t.Fatalf("novel times capabilities on %d texts, want every parameter set", len(texts))
		}
		caps, err := capabilityCosts(texts)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range capFamilies {
			if _, ok := caps[f]; !ok {
				t.Errorf("%s: no %s step ran", w, f)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics requires exactly the listed metrics, with their units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestResultLinesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json lists workload %q, program runs %v", w.Name, workloads)
		}
	}
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		res, err := run(options{workload: "warm", seed: 1, seconds: 1, trace: trace}, &out)
		if err != nil {
			t.Fatalf("trace=%v: %v\n%s", trace, err, out.Bytes())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if trace {
			checkMetrics(t, res.Metrics, spec.PerLayer)
		} else {
			checkMetrics(t, res.Metrics, spec.EndToEnd)
		}
	}
}
