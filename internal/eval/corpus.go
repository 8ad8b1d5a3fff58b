package eval

import (
	"fmt"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
)

// Corpus returns the evaluation's questions: the paper's four case
// studies verbatim, in order, then one question per catalog cable, per
// pair of regions, per disaster set (earthquakes, hurricanes or both,
// at a 5, 10, 20 or 30 % failure probability) and per forensic window
// (two to five days). Tests hash plans in this order, so it must not
// change.
func Corpus() []string {
	queries := []string{
		"Identify the impact at a country level due to SeaMeWe-5 cable failure",
		"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
		"Analyze the cascading effects of submarine cable failures between Europe and Asia",
		"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
	}
	for _, c := range nautilus.BuildCatalog().Cables() {
		queries = append(queries, fmt.Sprintf("Identify the impact at a country level due to %s cable failure", c.Name))
	}
	regions := geo.AllRegions()
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			queries = append(queries, fmt.Sprintf("Analyze the cascading effects of submarine cable failures between %s and %s", a, b))
		}
	}
	for _, d := range []string{"earthquakes", "hurricanes", "earthquakes and hurricanes"} {
		for _, p := range []int{5, 10, 20, 30} {
			queries = append(queries, fmt.Sprintf("Identify the impact of severe %s globally assuming a %d%% infra failure probability", d, p))
		}
	}
	for _, w := range []string{"two", "three", "four", "five"} {
		queries = append(queries, fmt.Sprintf("A sudden increase in latency was observed from European probes to Asian "+
			"destinations starting %s days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.", w))
	}
	return queries
}
