package nlq

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
)

// The four paper case-study queries, verbatim.
const (
	queryCS1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	queryCS2 = "Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability"
	queryCS3 = "Analyze the cascading effects of submarine cable failures between Europe and Asia"
	queryCS4 = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."
)

func cat(t testing.TB) *nautilus.Catalog {
	t.Helper()
	return nautilus.BuildCatalog()
}

func TestParseCS1(t *testing.T) {
	s := Parse(queryCS1, cat(t))
	if s.Intent != IntentCableImpact {
		t.Errorf("intent = %s", s.Intent)
	}
	if len(s.Cables) != 1 || s.Cables[0] != "seamewe-5" {
		t.Errorf("cables = %v", s.Cables)
	}
	if s.AggLevel != "country" {
		t.Errorf("agg = %q", s.AggLevel)
	}
	if s.WantsCausation || s.Window.Mentioned {
		t.Error("CS1 should not demand causation or time window")
	}
}

func TestParseCS2(t *testing.T) {
	s := Parse(queryCS2, cat(t))
	if s.Intent != IntentDisasterImpact {
		t.Errorf("intent = %s", s.Intent)
	}
	if len(s.Disasters) != 2 {
		t.Errorf("disasters = %v", s.Disasters)
	}
	if s.FailProb != 0.10 {
		t.Errorf("failProb = %f", s.FailProb)
	}
}

func TestParseCS3(t *testing.T) {
	s := Parse(queryCS3, cat(t))
	if s.Intent != IntentCascade {
		t.Errorf("intent = %s", s.Intent)
	}
	want := map[geo.Region]bool{geo.Europe: true, geo.Asia: true}
	if len(s.Regions) != 2 || !want[s.Regions[0]] || !want[s.Regions[1]] {
		t.Errorf("regions = %v", s.Regions)
	}
}

func TestParseCS4(t *testing.T) {
	s := Parse(queryCS4, cat(t))
	if s.Intent != IntentForensic {
		t.Errorf("intent = %s", s.Intent)
	}
	if !s.WantsCausation {
		t.Error("causation not detected")
	}
	if !s.WantsIdentification {
		t.Error("culprit identification not detected")
	}
	if !s.Window.Mentioned || s.Window.Days != 3 {
		t.Errorf("window = %+v", s.Window)
	}
	if len(s.Metrics) != 1 || s.Metrics[0] != "latency" {
		t.Errorf("metrics = %v", s.Metrics)
	}
	if len(s.Regions) != 2 {
		t.Errorf("regions = %v", s.Regions)
	}
}

func TestComplexityOrdering(t *testing.T) {
	c := cat(t)
	c1 := Parse(queryCS1, c).Complexity()
	c2 := Parse(queryCS2, c).Complexity()
	c3 := Parse(queryCS3, c).Complexity()
	c4 := Parse(queryCS4, c).Complexity()
	if !(c1 < c3 && c1 < c4) {
		t.Errorf("CS1 (%d) should be simpler than CS3 (%d) and CS4 (%d)", c1, c3, c4)
	}
	if c4 < c3 {
		t.Errorf("forensic CS4 (%d) should be at least as complex as CS3 (%d)", c4, c3)
	}
	_ = c2
}

func TestExtractProbabilityForms(t *testing.T) {
	cases := map[string]float64{
		"assuming a 10% failure":         0.10,
		"with 2.5% of links down":        0.025,
		"failure probability of 0.3":     0.3,
		"probability 25":                 0.25,
		"no probability here":            0,
		"a 150% failure makes no sense":  0, // out of range
		"blackout probability of potato": 0,
	}
	for q, want := range cases {
		if got := Parse(q, nil).FailProb; got != want {
			t.Errorf("Parse(%q).FailProb = %f, want %f", q, got, want)
		}
	}
}

func TestExtractWindowForms(t *testing.T) {
	cases := map[string]TimeWindow{
		"started three days ago": {Mentioned: true, Days: 3},
		"began 5 days ago":       {Mentioned: true, Days: 5},
		"since two weeks ago":    {Mentioned: true, Days: 14},
		"one day ago it broke":   {Mentioned: true, Days: 1},
		"a week ago":             {Mentioned: true, Days: 7},
		"some time in the past":  {},
		"in three days from now": {},
	}
	for q, want := range cases {
		if got := extractWindow(q); got != want {
			t.Errorf("extractWindow(%q) = %+v, want %+v", q, got, want)
		}
	}
}

func TestExtractCablesMultiple(t *testing.T) {
	s := Parse("compare AAE-1 against FALCON and the Europe India Gateway", cat(t))
	want := map[nautilus.CableID]bool{"aae-1": true, "falcon": true, "eig": true}
	if len(s.Cables) != 3 {
		t.Fatalf("cables = %v", s.Cables)
	}
	for _, c := range s.Cables {
		if !want[c] {
			t.Errorf("unexpected cable %s", c)
		}
	}
}

func TestExtractCablesNilCatalog(t *testing.T) {
	s := Parse(queryCS1, nil)
	if len(s.Cables) != 0 {
		t.Errorf("cables without catalog = %v", s.Cables)
	}
}

func TestExtractCountries(t *testing.T) {
	s := Parse("how does an outage in Egypt affect Singapore and France", cat(t))
	want := map[string]bool{"EG": true, "SG": true, "FR": true}
	if len(s.Countries) != 3 {
		t.Fatalf("countries = %v", s.Countries)
	}
	for _, c := range s.Countries {
		if !want[c] {
			t.Errorf("unexpected country %s", c)
		}
	}
}

func TestIntentDisasterWithoutCables(t *testing.T) {
	s := Parse("what would a severe typhoon do to connectivity", cat(t))
	if s.Intent != IntentDisasterImpact {
		t.Errorf("intent = %s", s.Intent)
	}
	if len(s.Disasters) != 1 || s.Disasters[0] != "hurricane" {
		t.Errorf("disasters = %v", s.Disasters)
	}
}

func TestIntentGeneric(t *testing.T) {
	s := Parse("list all autonomous systems in the dataset", cat(t))
	if s.Intent != IntentGeneric {
		t.Errorf("intent = %s", s.Intent)
	}
}

func TestAggLevelAS(t *testing.T) {
	s := Parse("show the blast radius per AS for an AAE-1 cut", cat(t))
	if s.AggLevel != "as" {
		t.Errorf("agg = %q", s.AggLevel)
	}
}

func TestMetricsExtraction(t *testing.T) {
	s := Parse("throughput dropped and packet loss spiked with high rtt", cat(t))
	if len(s.Metrics) != 3 {
		t.Errorf("metrics = %v", s.Metrics)
	}
}

// caseStudies are the four case-study queries by name.
var caseStudies = []struct{ name, query string }{
	{"cs1", queryCS1}, {"cs2", queryCS2}, {"cs3", queryCS3}, {"cs4", queryCS4},
}

// wrappedCaseStudies wrap the case studies the way servebench's novel
// workload wraps each question it sends: an opener, the question, a
// closer, a sign-off and a postscript, none of which holds a word Parse
// reads.
var wrappedCaseStudies = []string{
	wrap("Question for the team: ", queryCS1, " for the weekly briefing.", " Thanks.", " Reply in this thread."),
	wrap("From the ops desk: ", queryCS2, " and summarize the findings.", " Much appreciated.", " Copy the on-call lead."),
	wrap("Analyst request: ", queryCS3, " with the available data.", " Best regards.", " Loop in the data team."),
	wrap("Heads up: ", queryCS4, " and report back.", " Thanks in advance.", " Please confirm receipt."),
}

func wrap(opener, query, closer, signoff, postscript string) string {
	query = strings.TrimSuffix(query, ".")
	return opener + strings.ToLower(query[:1]) + query[1:] + closer + signoff + postscript
}

// TestParseConcurrent parses from several goroutines on one catalog,
// as concurrent plan misses do, so a -race run sees the shared
// automata read at once.
func TestParseConcurrent(t *testing.T) {
	c := nautilus.BuildCatalog()
	texts := append([]string{queryCS1, queryCS2, queryCS3, queryCS4}, wrappedCaseStudies...)
	want := make([]Spec, len(texts))
	for i, q := range texts {
		want[i] = Parse(q, c)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				for i, q := range texts {
					if got := Parse(q, c); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("concurrent Parse(%q)\n got  %+v\n want %+v", q, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestVocabularySize holds the vocabulary automaton to half of the
// 32 KiB that it and the catalog's automaton may take together; the
// nautilus tests hold the other half.
func TestVocabularySize(t *testing.T) {
	if size := vocabulary.Size(); size > 16<<10 {
		t.Errorf("vocabulary automaton holds %d bytes, budget %d", size, 16<<10)
	}
}

// TestParseAllocs pins Parse's allocation budget, paid on every
// plan-cache miss: only what the text itself needs (its lowered form
// and the Spec's slices). The ceiling is over three times the largest
// case study's count.
func TestParseAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	c := nautilus.BuildCatalog()
	const ceiling = 30
	for _, cs := range caseStudies {
		avg := testing.AllocsPerRun(200, func() { Parse(cs.query, c) })
		t.Logf("%s: %.1f allocs/op", cs.name, avg)
		if avg > ceiling {
			t.Errorf("Parse(%s) allocates %.1f/op, budget %d", cs.name, avg, ceiling)
		}
	}
}

var sinkSpec Spec

// BenchmarkParse times each case study, and in its wrapped row one of
// wrappedCaseStudies per iteration, in turn: the shape of the texts
// servebench's novel workload sends.
func BenchmarkParse(b *testing.B) {
	c := nautilus.BuildCatalog()
	for _, cs := range caseStudies {
		b.Run(cs.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkSpec = Parse(cs.query, c)
			}
		})
	}
	b.Run("wrapped", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			sinkSpec = Parse(wrappedCaseStudies[i%len(wrappedCaseStudies)], c)
			i++
		}
	})
}
