// Package nlq analyzes natural-language measurement queries: it
// tokenizes the query, extracts measurement entities (cable names,
// regions, countries, disaster types, probabilities, time windows,
// metrics) and classifies the analytical intent.
//
// This is the front half of QueryMind: the deterministic language
// analysis the paper's prompt-engineered agent performs before problem
// decomposition. The rules encode how measurement experts read queries
// ("at a country level" fixes the aggregation grain; "caused" demands
// causation; "assuming X% failure" sets the scenario probability).
//
// Parse runs on every plan-cache miss, so it rebuilds nothing that does
// not depend on the text: cable names are normalized once, by
// nautilus.BuildCatalog, and the lowercased country names once, at
// package init. Each regular expression runs only when the text holds
// the literal it cannot match without ("%", "probability", "ago").
package nlq

import (
	"regexp"
	"strconv"
	"strings"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
)

// Intent is the top-level analytical goal of a query.
type Intent string

// Query intents, ordered from most to least specific.
const (
	IntentForensic       Intent = "forensic"        // establish causation for an observed anomaly
	IntentCascade        Intent = "cascade"         // cascading/secondary failure analysis
	IntentDisasterImpact Intent = "disaster-impact" // natural-disaster scenarios
	IntentCableImpact    Intent = "cable-impact"    // failure impact of named/bounded cables
	IntentGeneric        Intent = "generic"         // unrecognized measurement question
)

// TimeWindow captures a relative time mention such as "three days ago".
type TimeWindow struct {
	Mentioned bool
	Days      int
}

// Spec is the structured reading of a query.
type Spec struct {
	Raw       string
	Intent    Intent
	Cables    []nautilus.CableID
	Regions   []geo.Region
	Countries []string // ISO codes mentioned by name
	Disasters []string // "earthquake", "hurricane"
	// FailProb is the scenario failure probability (0 when unset).
	FailProb float64
	// AggLevel is "country" or "as" when the query pins the grain.
	AggLevel string
	Window   TimeWindow
	// Metrics lists observable quantities mentioned (latency, loss, ...).
	Metrics []string
	// WantsCausation is set when the query demands cause identification.
	WantsCausation bool
	// WantsIdentification is set when a specific culprit must be named.
	WantsIdentification bool
}

// Each regular expression needs a literal ("%", "probability", "ago")
// that its caller looks for first: without it the expression cannot
// match, and skipping it saves a scan of the whole text.
var (
	percentRe = regexp.MustCompile(`(\d+(?:\.\d+)?)\s*%`)
	probRe    = regexp.MustCompile(`probability\s+(?:of\s+)?(\d+(?:\.\d+)?)`)
	daysRe    = regexp.MustCompile(`(\d+|a|one|two|three|four|five|six|seven|ten)\s+(day|week)s?\s+ago`)
)

var numberWords = map[string]int{
	"a": 1, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
	"six": 6, "seven": 7, "ten": 10,
}

// Parse analyzes a query against a cable catalog (used to resolve cable
// names; may be nil to skip cable extraction).
func Parse(raw string, cat *nautilus.Catalog) Spec {
	s := Spec{Raw: raw}
	q := strings.ToLower(raw)

	s.Cables = extractCables(q, cat)
	s.Regions = extractRegions(q)
	s.Countries = extractCountries(q)
	s.Disasters = extractDisasters(q)
	s.FailProb = extractProbability(q)
	s.Window = extractWindow(q)
	s.Metrics = extractMetrics(q)

	if strings.Contains(q, "country level") || strings.Contains(q, "country-level") ||
		strings.Contains(q, "per country") || strings.Contains(q, "by country") {
		s.AggLevel = "country"
	} else if strings.Contains(q, "as level") || strings.Contains(q, "as-level") || strings.Contains(q, "per as") {
		s.AggLevel = "as"
	}

	s.WantsCausation = containsAny(q, "caused", "cause of", "root cause", "determine if", "due to what", "why")
	s.WantsIdentification = containsAny(q, "identify the specific", "which cable", "identify the cable", "name the cable")

	s.Intent = classify(q, s)
	return s
}

func classify(q string, s Spec) Intent {
	forensicSignals := 0
	if s.WantsCausation {
		forensicSignals++
	}
	if s.Window.Mentioned {
		forensicSignals++
	}
	if containsAny(q, "observed", "sudden", "anomaly", "investigat") {
		forensicSignals++
	}
	if len(s.Metrics) > 0 {
		forensicSignals++
	}
	switch {
	case forensicSignals >= 2:
		return IntentForensic
	case strings.Contains(q, "cascad"):
		return IntentCascade
	case len(s.Disasters) > 0:
		return IntentDisasterImpact
	case (len(s.Cables) > 0 || strings.Contains(q, "cable")) && containsAny(q, "impact", "effect", "affect", "failure", "fails", "losing", "loss"):
		return IntentCableImpact
	default:
		return IntentGeneric
	}
}

func containsAny(q string, subs ...string) bool {
	for _, s := range subs {
		if strings.Contains(q, s) {
			return true
		}
	}
	return false
}

// extractCables matches catalog cable names against the query in the
// catalog's own normalization.
func extractCables(q string, cat *nautilus.Catalog) []nautilus.CableID {
	if cat == nil {
		return nil
	}
	return cat.Mentioned(nautilus.NormalizeName(q))
}

func extractRegions(q string) []geo.Region {
	var out []geo.Region
	seen := map[geo.Region]bool{}
	candidates := []string{
		"europe", "asia", "north america", "south america", "africa",
		"middle east", "oceania", "latam", "apac", "pacific", "gulf",
	}
	for _, c := range candidates {
		if !strings.Contains(q, c) {
			continue
		}
		if r, ok := geo.ParseRegion(c); ok && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// countryNames pairs every country's ISO code with its lowercased name,
// in code order.
var countryNames = func() []countryName {
	cs := geo.Countries()
	out := make([]countryName, len(cs))
	for i, c := range cs {
		out[i] = countryName{code: c.Code, name: strings.ToLower(c.Name)}
	}
	return out
}()

type countryName struct{ code, name string }

func extractCountries(q string) []string {
	var out []string
	for _, c := range countryNames {
		if strings.Contains(q, c.name) {
			out = append(out, c.code)
		}
	}
	return out
}

func extractDisasters(q string) []string {
	var out []string
	if containsAny(q, "earthquake", "seismic", "quake") {
		out = append(out, "earthquake")
	}
	if containsAny(q, "hurricane", "typhoon", "cyclone", "storm") {
		out = append(out, "hurricane")
	}
	return out
}

func extractProbability(q string) float64 {
	if strings.Contains(q, "%") {
		if m := percentRe.FindStringSubmatch(q); m != nil {
			if v, err := strconv.ParseFloat(m[1], 64); err == nil && v >= 0 && v <= 100 {
				return v / 100
			}
		}
	}
	if !strings.Contains(q, "probability") {
		return 0
	}
	if m := probRe.FindStringSubmatch(q); m != nil {
		if v, err := strconv.ParseFloat(m[1], 64); err == nil {
			if v <= 1 {
				return v
			}
			if v <= 100 {
				return v / 100
			}
		}
	}
	return 0
}

func extractWindow(q string) TimeWindow {
	if !strings.Contains(q, "ago") {
		return TimeWindow{}
	}
	m := daysRe.FindStringSubmatch(q)
	if m == nil {
		return TimeWindow{}
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		var ok bool
		n, ok = numberWords[m[1]]
		if !ok {
			return TimeWindow{}
		}
	}
	if m[2] == "week" {
		n *= 7
	}
	return TimeWindow{Mentioned: true, Days: n}
}

func extractMetrics(q string) []string {
	var out []string
	if containsAny(q, "latency", "rtt", "delay", "slow") {
		out = append(out, "latency")
	}
	if containsAny(q, "packet loss", "loss rate", "unreachable", "outage") {
		out = append(out, "loss")
	}
	if containsAny(q, "throughput", "bandwidth") {
		out = append(out, "throughput")
	}
	return out
}

// Complexity scores how much integration the query demands; the
// adaptive-exploration policy of WorkflowScout keys off it. One point
// each for: multi-region scope, temporal analysis, causation, cascade
// language, multiple disaster types, and per-metric evidence.
func (s Spec) Complexity() int {
	score := 0
	if len(s.Regions) >= 2 {
		score++
	}
	if s.Window.Mentioned {
		score++
	}
	if s.WantsCausation {
		score++
	}
	if s.Intent == IntentCascade {
		score += 2
	}
	if s.Intent == IntentForensic {
		score += 2
	}
	if len(s.Disasters) >= 2 {
		score++
	}
	score += len(s.Metrics)
	return score
}
