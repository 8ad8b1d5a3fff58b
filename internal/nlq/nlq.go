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
// Parse runs on every plan-cache miss, so it reads the text in one pass
// and rebuilds nothing that does not depend on it. Every literal it
// looks for (its keywords, the region aliases and the lowercased
// country names) is a word of one Aho–Corasick automaton, built at
// package init; one scan of the lowered text marks the words that
// occur, and every field is derived from those marks. The catalog's own
// automaton, built by nautilus.BuildCatalog, finds cable names in the
// same lowered text, reading only its letters and digits. Hand-written
// scanners read the three numeric forms ("10%", "probability of 0.3",
// "three days ago") and return what the regular expressions
//
//	(\d+(?:\.\d+)?)\s*%
//	probability\s+(?:of\s+)?(\d+(?:\.\d+)?)
//	(\d+|a|one|two|three|four|five|six|seven|ten)\s+(day|week)s?\s+ago
//
// would: the leftmost match, leftmost-first, and its submatches. Each
// runs only when the scan saw the literal it cannot match without
// ("%", "probability", "ago").
package nlq

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/textmatch"
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

// Keyword groups: each is one fact Parse reads off the text, and holds
// when any of its words occurs in the lowered text.
const (
	kwPercent        = iota // "%": the percentage scanner may match
	kwProbability           // the "probability [of] N" scanner may match
	kwAgo                   // the "N days ago" scanner may match
	kwEarthquake            // disaster "earthquake"
	kwHurricane             // disaster "hurricane"
	kwLatency               // metric "latency"
	kwLoss                  // metric "loss"
	kwThroughput            // metric "throughput"
	kwCountryLevel          // aggregation "country"
	kwASLevel               // aggregation "as"
	kwCausation             // WantsCausation
	kwIdentification        // WantsIdentification
	kwAnomaly               // a forensic signal
	kwCascade               // cascade intent
	kwCable                 // cable impact without a named cable
	kwImpact                // cable impact
	numKeywordGroups
)

var keywordGroups = [numKeywordGroups][]string{
	kwPercent:        {"%"},
	kwProbability:    {"probability"},
	kwAgo:            {"ago"},
	kwEarthquake:     {"earthquake", "seismic", "quake"},
	kwHurricane:      {"hurricane", "typhoon", "cyclone", "storm"},
	kwLatency:        {"latency", "rtt", "delay", "slow"},
	kwLoss:           {"packet loss", "loss rate", "unreachable", "outage"},
	kwThroughput:     {"throughput", "bandwidth"},
	kwCountryLevel:   {"country level", "country-level", "per country", "by country"},
	kwASLevel:        {"as level", "as-level", "per as"},
	kwCausation:      {"caused", "cause of", "root cause", "determine if", "due to what", "why"},
	kwIdentification: {"identify the specific", "which cable", "identify the cable", "name the cable"},
	kwAnomaly:        {"observed", "sudden", "anomaly", "investigat"},
	kwCascade:        {"cascad"},
	kwCable:          {"cable"},
	kwImpact:         {"impact", "effect", "affect", "failure", "fails", "losing", "loss"},
}

// regionAliases are the region words Parse recognizes, in the order
// their regions are reported.
var regionAliases = [...]string{
	"europe", "asia", "north america", "south america", "africa",
	"middle east", "oceania", "latam", "apac", "pacific", "gulf",
}

// maxVocabulary bounds the vocabulary, so Parse keeps its marks on the
// stack.
const maxVocabulary = 256

// The vocabulary automaton's patterns are, in order: the words of each
// keyword group, group by group (group g's words end at groupEnd[g]), then
// regionAliases from regionBase, then the lowered name of each
// countryCodes entry from countryBase.
var (
	vocabulary  *textmatch.Matcher
	groupEnd    [numKeywordGroups]int
	regionBase  int
	countryBase int
	// aliasRegion is the region each of regionAliases names.
	aliasRegion [len(regionAliases)]geo.Region
	// countryCodes lists every country's ISO code in code order.
	countryCodes []string
)

func init() {
	var words []string
	for g, group := range keywordGroups {
		words = append(words, group...)
		groupEnd[g] = len(words)
	}
	regionBase = len(words)
	for i, alias := range regionAliases {
		r, ok := geo.ParseRegion(alias)
		if !ok {
			panic(fmt.Sprintf("nlq: region alias %q names no region", alias))
		}
		aliasRegion[i] = r
		words = append(words, alias)
	}
	countryBase = len(words)
	for _, c := range geo.Countries() {
		countryCodes = append(countryCodes, c.Code)
		words = append(words, strings.ToLower(c.Name))
	}
	if len(words) > maxVocabulary {
		panic(fmt.Sprintf("nlq: %d vocabulary words exceed maxVocabulary", len(words)))
	}
	vocabulary = textmatch.New(words)
}

// numberWords are the word alternatives of a window's count, with their
// values.
var numberWords = map[string]int{
	"a": 1, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
	"six": 6, "seven": 7, "ten": 10,
}

// Parse analyzes a query against a cable catalog (used to resolve cable
// names; may be nil to skip cable extraction).
func Parse(raw string, cat *nautilus.Catalog) Spec {
	s := Spec{Raw: raw}
	q := strings.ToLower(raw)

	var hit [maxVocabulary]bool
	vocabulary.Scan(q, hit[:])
	var kw [numKeywordGroups]bool
	start := 0
	for g, end := range groupEnd {
		kw[g] = slices.Contains(hit[start:end], true)
		start = end
	}

	s.Cables = extractCables(q, cat)
	for i, r := range aliasRegion {
		if hit[regionBase+i] && !slices.Contains(s.Regions, r) {
			s.Regions = append(s.Regions, r)
		}
	}
	for i, code := range countryCodes {
		if hit[countryBase+i] {
			s.Countries = append(s.Countries, code)
		}
	}
	if kw[kwEarthquake] {
		s.Disasters = append(s.Disasters, "earthquake")
	}
	if kw[kwHurricane] {
		s.Disasters = append(s.Disasters, "hurricane")
	}
	s.FailProb = extractProbability(q, kw[kwPercent], kw[kwProbability])
	if kw[kwAgo] {
		s.Window = extractWindow(q)
	}
	if kw[kwLatency] {
		s.Metrics = append(s.Metrics, "latency")
	}
	if kw[kwLoss] {
		s.Metrics = append(s.Metrics, "loss")
	}
	if kw[kwThroughput] {
		s.Metrics = append(s.Metrics, "throughput")
	}

	if kw[kwCountryLevel] {
		s.AggLevel = "country"
	} else if kw[kwASLevel] {
		s.AggLevel = "as"
	}

	s.WantsCausation = kw[kwCausation]
	s.WantsIdentification = kw[kwIdentification]

	s.Intent = classify(&s, &kw)
	return s
}

func classify(s *Spec, kw *[numKeywordGroups]bool) Intent {
	forensicSignals := 0
	if s.WantsCausation {
		forensicSignals++
	}
	if s.Window.Mentioned {
		forensicSignals++
	}
	if kw[kwAnomaly] {
		forensicSignals++
	}
	if len(s.Metrics) > 0 {
		forensicSignals++
	}
	switch {
	case forensicSignals >= 2:
		return IntentForensic
	case kw[kwCascade]:
		return IntentCascade
	case len(s.Disasters) > 0:
		return IntentDisasterImpact
	case (len(s.Cables) > 0 || kw[kwCable]) && kw[kwImpact]:
		return IntentCableImpact
	default:
		return IntentGeneric
	}
}

// extractCables matches catalog cable names against the lowered query
// in the catalog's own normalization, which the catalog's scan applies
// as it reads q.
func extractCables(q string, cat *nautilus.Catalog) []nautilus.CableID {
	if cat == nil {
		return nil
	}
	return cat.Mentioned(q)
}

// extractProbability reads the scenario failure probability: the first
// percentage, when it lies in [0, 100], else the number after
// "probability [of]". percent and probability report whether q holds
// "%" and "probability", without which neither form can match.
func extractProbability(q string, percent, probability bool) float64 {
	if percent {
		if num, ok := scanPercent(q); ok {
			if v, err := strconv.ParseFloat(num, 64); err == nil && v >= 0 && v <= 100 {
				return v / 100
			}
		}
	}
	if !probability {
		return 0
	}
	if num, ok := scanProbability(q); ok {
		if v, err := strconv.ParseFloat(num, 64); err == nil {
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

// extractWindow reads the first "N days ago" or "N weeks ago".
func extractWindow(q string) TimeWindow {
	num, unit, ok := scanDays(q)
	if !ok {
		return TimeWindow{}
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		n, ok = numberWords[num]
		if !ok {
			return TimeWindow{}
		}
	}
	if unit == "week" {
		n *= 7
	}
	return TimeWindow{Mentioned: true, Days: n}
}

// isSpace reports whether c is in RE2's \s class, [\t\n\f\r ]: \v is
// not.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digitsEnd returns the end of the run of digits starting at i.
func digitsEnd(q string, i int) int {
	for i < len(q) && isDigit(q[i]) {
		i++
	}
	return i
}

// spacesEnd returns the end of the run of spaces starting at i.
func spacesEnd(q string, i int) int {
	for i < len(q) && isSpace(q[i]) {
		i++
	}
	return i
}

// numberEnd returns the end of `\d+(?:\.\d+)?` at i, which starts a
// run of digits, taking the fraction whenever one follows.
func numberEnd(q string, i int) int {
	i = digitsEnd(q, i)
	if i+1 < len(q) && q[i] == '.' && isDigit(q[i+1]) {
		i = digitsEnd(q, i+1)
	}
	return i
}

// scanPercent returns the submatch of the leftmost match of
// `(\d+(?:\.\d+)?)\s*%` in q. Only the greedy reading can match: giving
// back a digit, the fraction or a space leaves a digit, "." or space
// where "%" must be.
func scanPercent(q string) (string, bool) {
	for i := 0; i < len(q); {
		if !isDigit(q[i]) {
			i++
			continue
		}
		end := numberEnd(q, i)
		if j := spacesEnd(q, end); j < len(q) && q[j] == '%' {
			return q[i:end], true
		}
		// A match starting later in this run of digits would end where
		// this one did, and fail the same way.
		i = digitsEnd(q, i)
	}
	return "", false
}

// scanProbability returns the submatch of the leftmost match of
// `probability\s+(?:of\s+)?(\d+(?:\.\d+)?)` in q. After the spaces,
// "of" and more spaces are tried first, then the number directly.
func scanProbability(q string) (string, bool) {
	const word = "probability"
	for from := 0; ; {
		i := strings.Index(q[from:], word)
		if i < 0 {
			return "", false
		}
		from += i + 1
		p := from - 1 + len(word)
		j := spacesEnd(q, p)
		if j == p {
			continue
		}
		if strings.HasPrefix(q[j:], "of") {
			if k := spacesEnd(q, j+2); k > j+2 && k < len(q) && isDigit(q[k]) {
				return q[k:numberEnd(q, k)], true
			}
			continue // q[j] is 'o', not a digit
		}
		if j < len(q) && isDigit(q[j]) {
			return q[j:numberEnd(q, j)], true
		}
	}
}

// scanDays returns the two submatches of the leftmost match of
// `(\d+|a|one|two|three|four|five|six|seven|ten)\s+(day|week)s?\s+ago`
// in q. Every match's count ends where a run of spaces starts, and
// counts ending further on start further on, so the first run of spaces
// that both ends a count and starts the rest of a match gives the
// leftmost match.
func scanDays(q string) (num, unit string, ok bool) {
	for e := 1; e < len(q); e++ {
		if !isSpace(q[e]) || isSpace(q[e-1]) {
			continue
		}
		unit, ok := scanDaysAgo(q, e)
		if !ok {
			continue
		}
		if start := countStart(q, e); start >= 0 {
			return q[start:e], unit, true
		}
	}
	return "", "", false
}

// countStart returns where the count that ends at e starts, or -1 when
// none does. A run of digits counts from its first digit, the leftmost
// start that ends at e. The words match anywhere, inside other words
// too ("extra days ago" reads "a"), and no word ends another, so at
// most one ends at e.
func countStart(q string, e int) int {
	if isDigit(q[e-1]) {
		s := e - 1
		for s > 0 && isDigit(q[s-1]) {
			s--
		}
		return s
	}
	for w := range numberWords {
		if strings.HasSuffix(q[:e], w) {
			return e - len(w)
		}
	}
	return -1
}

// scanDaysAgo matches `\s+(day|week)s?\s+ago` at i and returns the unit.
// Giving back the "s" or a space leaves an "s" or a space where a space
// or "ago" must be, so only the greedy reading can match.
func scanDaysAgo(q string, i int) (string, bool) {
	j := spacesEnd(q, i)
	if j == i {
		return "", false
	}
	var unit string
	switch {
	case strings.HasPrefix(q[j:], "day"):
		unit = "day"
	case strings.HasPrefix(q[j:], "week"):
		unit = "week"
	default:
		return "", false
	}
	j += len(unit)
	if j < len(q) && q[j] == 's' {
		j++
	}
	k := spacesEnd(q, j)
	if k == j || !strings.HasPrefix(q[k:], "ago") {
		return "", false
	}
	return unit, true
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
