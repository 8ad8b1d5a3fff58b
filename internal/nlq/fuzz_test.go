package nlq

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
)

// FuzzParse checks Parse against refParse, the implementation that
// normalized every catalog name, copied the cable and country tables
// and ran every regular expression on each call. Both must read any
// text, with or without a catalog, into the same Spec.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		queryCS1, queryCS2, queryCS3, queryCS4,
		// Texts of the other tests in this package.
		"assuming a 10% failure", "with 2.5% of links down", "failure probability of 0.3",
		"probability 25", "no probability here", "a 150% failure makes no sense",
		"blackout probability of potato",
		"started three days ago", "began 5 days ago", "since two weeks ago",
		"one day ago it broke", "a week ago", "some time in the past", "in three days from now",
		"compare AAE-1 against FALCON and the Europe India Gateway",
		"how does an outage in Egypt affect Singapore and France",
		"what would a severe typhoon do to connectivity",
		"list all autonomous systems in the dataset",
		"show the blast radius per AS for an AAE-1 cut",
		"throughput dropped and packet loss spiked with high rtt",
		// Each regular expression's literal, with and without a match.
		"a 150% failure", "probability of 0.3",
		// daysRe's "a" and "one" alternatives match inside a word.
		"extra days ago", "someone days ago",
		// Case mappings outside ASCII: strings.ToLower maps the Kelvin
		// sign to an ASCII k.
		"İstanbul", "\u212a",
	} {
		f.Add(q)
	}
	cat := nautilus.BuildCatalog()
	f.Fuzz(func(t *testing.T, q string) {
		for _, c := range []*nautilus.Catalog{cat, nil} {
			got, want := Parse(q, c), refParse(q, c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Parse(%q, catalog %t)\n got  %+v\n want %+v", q, c != nil, got, want)
			}
		}
	})
}

// refParse and the ref* functions below are Parse as it stood before
// its tables moved to construction time, kept verbatim but for the
// names as the reference FuzzParse compares against.
func refParse(raw string, cat *nautilus.Catalog) Spec {
	s := Spec{Raw: raw}
	q := strings.ToLower(raw)

	s.Cables = refExtractCables(q, cat)
	s.Regions = refExtractRegions(q)
	s.Countries = refExtractCountries(q)
	s.Disasters = refExtractDisasters(q)
	s.FailProb = refExtractProbability(q)
	s.Window = refExtractWindow(q)
	s.Metrics = refExtractMetrics(q)

	if strings.Contains(q, "country level") || strings.Contains(q, "country-level") ||
		strings.Contains(q, "per country") || strings.Contains(q, "by country") {
		s.AggLevel = "country"
	} else if strings.Contains(q, "as level") || strings.Contains(q, "as-level") || strings.Contains(q, "per as") {
		s.AggLevel = "as"
	}

	s.WantsCausation = refContainsAny(q, "caused", "cause of", "root cause", "determine if", "due to what", "why")
	s.WantsIdentification = refContainsAny(q, "identify the specific", "which cable", "identify the cable", "name the cable")

	s.Intent = refClassify(q, s)
	return s
}

var (
	refPercentRe = regexp.MustCompile(`(\d+(?:\.\d+)?)\s*%`)
	refProbRe    = regexp.MustCompile(`probability\s+(?:of\s+)?(\d+(?:\.\d+)?)`)
	refDaysRe    = regexp.MustCompile(`(\d+|a|one|two|three|four|five|six|seven|ten)\s+(day|week)s?\s+ago`)
)

var refNumberWords = map[string]int{
	"a": 1, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
	"six": 6, "seven": 7, "ten": 10,
}

func refClassify(q string, s Spec) Intent {
	forensicSignals := 0
	if s.WantsCausation {
		forensicSignals++
	}
	if s.Window.Mentioned {
		forensicSignals++
	}
	if refContainsAny(q, "observed", "sudden", "anomaly", "investigat") {
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
	case (len(s.Cables) > 0 || strings.Contains(q, "cable")) && refContainsAny(q, "impact", "effect", "affect", "failure", "fails", "losing", "loss"):
		return IntentCableImpact
	default:
		return IntentGeneric
	}
}

func refContainsAny(q string, subs ...string) bool {
	for _, s := range subs {
		if strings.Contains(q, s) {
			return true
		}
	}
	return false
}

func refExtractCables(q string, cat *nautilus.Catalog) []nautilus.CableID {
	if cat == nil {
		return nil
	}
	norm := refNormalize(q)
	var out []nautilus.CableID
	seen := map[nautilus.CableID]bool{}
	for _, c := range cat.Cables() {
		for _, alias := range []string{c.Name, string(c.ID)} {
			na := refNormalize(alias)
			if na != "" && strings.Contains(norm, na) && !seen[c.ID] {
				seen[c.ID] = true
				out = append(out, c.ID)
			}
		}
		// Short form without the parenthetical, e.g. "AAE-1 (Asia-…)".
		if i := strings.IndexByte(c.Name, '('); i > 0 {
			na := refNormalize(c.Name[:i])
			if na != "" && strings.Contains(norm, na) && !seen[c.ID] {
				seen[c.ID] = true
				out = append(out, c.ID)
			}
		}
	}
	return out
}

func refNormalize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func refExtractRegions(q string) []geo.Region {
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

func refExtractCountries(q string) []string {
	var out []string
	for _, c := range geo.Countries() {
		name := strings.ToLower(c.Name)
		if strings.Contains(q, name) {
			out = append(out, c.Code)
		}
	}
	return out
}

func refExtractDisasters(q string) []string {
	var out []string
	if refContainsAny(q, "earthquake", "seismic", "quake") {
		out = append(out, "earthquake")
	}
	if refContainsAny(q, "hurricane", "typhoon", "cyclone", "storm") {
		out = append(out, "hurricane")
	}
	return out
}

func refExtractProbability(q string) float64 {
	if m := refPercentRe.FindStringSubmatch(q); m != nil {
		if v, err := strconv.ParseFloat(m[1], 64); err == nil && v >= 0 && v <= 100 {
			return v / 100
		}
	}
	if m := refProbRe.FindStringSubmatch(q); m != nil {
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

func refExtractWindow(q string) TimeWindow {
	m := refDaysRe.FindStringSubmatch(q)
	if m == nil {
		return TimeWindow{}
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		var ok bool
		n, ok = refNumberWords[m[1]]
		if !ok {
			return TimeWindow{}
		}
	}
	if m[2] == "week" {
		n *= 7
	}
	return TimeWindow{Mentioned: true, Days: n}
}

func refExtractMetrics(q string) []string {
	var out []string
	if refContainsAny(q, "latency", "rtt", "delay", "slow") {
		out = append(out, "latency")
	}
	if refContainsAny(q, "packet loss", "loss rate", "unreachable", "outage") {
		out = append(out, "loss")
	}
	if refContainsAny(q, "throughput", "bandwidth") {
		out = append(out, "throughput")
	}
	return out
}
