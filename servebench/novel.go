package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"

	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
	"arachnet/internal/nlq"
)

// paramSet is one catalog-bound question: an intent and the parameters
// drawn from the world. core is the intent-bearing text; the generator
// only ever wraps it in neutral wording.
type paramSet struct {
	intent nlq.Intent
	core   string
}

// paramSets enumerates the novel workload's parameter sets: every
// catalog cable, every region pair, three disaster sets at four
// probabilities, and four forensic windows (44+21+12+4 = 81 on the
// builtin catalog).
func paramSets(cat *nautilus.Catalog) []paramSet {
	var out []paramSet
	for _, c := range cat.Cables() {
		out = append(out, paramSet{nlq.IntentCableImpact,
			fmt.Sprintf("identify the impact at a country level due to %s cable failure", c.Name)})
	}
	regions := geo.AllRegions()
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			out = append(out, paramSet{nlq.IntentCascade,
				fmt.Sprintf("analyze the cascading effects of submarine cable failures between %s and %s", a, b)})
		}
	}
	for _, d := range []string{"earthquakes", "hurricanes", "earthquakes and hurricanes"} {
		for _, p := range []int{5, 10, 20, 30} {
			out = append(out, paramSet{nlq.IntentDisasterImpact,
				fmt.Sprintf("identify the impact of severe %s globally assuming a %d%% infra failure probability", d, p)})
		}
	}
	for _, w := range []string{"two", "three", "four", "five"} {
		out = append(out, paramSet{nlq.IntentForensic, fmt.Sprintf(
			"a sudden increase in latency was observed from European probes to Asian destinations starting %s days ago. "+
				"Determine if a submarine cable failure caused this, and if so, identify the specific cable", w)})
	}
	return out
}

// Neutral wording: none of it names a country or region, and none of
// it carries a word nlq reads (see TestNeutralWordingIsNeutral).
var (
	openers = []string{
		"", "Request: ", "Question for the team: ", "Task: ", "Follow-up: ",
		"Priority item: ", "Next up: ", "From the ops desk: ", "Quick one: ",
		"Ticket: ", "For review: ", "Note: ", "Team ask: ", "Heads up: ",
		"New request: ", "Analyst request: ",
	}
	closers = []string{
		".", " for the weekly briefing.", " and summarize the findings.",
		" with the available data.", " and keep the answer short.",
		" for the operations team.", " as part of routine planning.",
		" and list the main results.", " using the standard method.",
		" for internal use.", " and note any caveats.", " in plain terms.",
		" for the design review.", " and report back.",
		" before the next meeting.", " for the monthly summary.",
	}
	signoffs = []string{
		"", " Thanks.", " Thank you.", " Much appreciated.", " Cheers.",
		" Best regards.", " No rush.", " Thanks in advance.",
	}
	postscripts = []string{
		"", " Reply in this thread.", " Copy the on-call lead.",
		" Please confirm receipt.", " Ping me with questions.",
		" Keep it brief.", " File it under planning.", " Loop in the data team.",
		" Share the draft first.", " Add it to the tracker.",
		" Mark it done when finished.", " Use plain language.",
		" Attach the notes.", " Note open questions.",
		" Send it to the whole group.", " Close the ticket after.",
	}
)

// phrasings is the number of distinct neutral wrappings of one core.
var phrasings = len(openers) * len(closers) * len(signoffs) * len(postscripts)

// phrase wraps core in the f-th neutral wording: f read as a
// mixed-radix number picks one opener, closer, sign-off and postscript.
func phrase(core string, f int) string {
	pick := func(list []string) string {
		w := list[f%len(list)]
		f /= len(list)
		return w
	}
	opener := pick(openers)
	text := opener + core + pick(closers) + pick(signoffs) + pick(postscripts)
	return strings.ToUpper(text[:1]) + text[1:]
}

// generator hands out the novel workload's texts. The i-th text is the
// image of i under a seeded affine bijection of [0, sets×phrasings), so
// texts never repeat within a run, parameter sets recur with a seeded
// stride, and the same seed yields the same sequence.
type generator struct {
	sets []paramSet
	n    uint64
	a, b uint64
	next atomic.Uint64
}

func newGenerator(sets []paramSet, seed uint64) *generator {
	n := uint64(len(sets) * phrasings)
	r := rand.New(rand.NewPCG(seed, 0x6e6f76656c))
	a := r.Uint64N(n)
	for gcd(a, n) != 1 {
		a = r.Uint64N(n)
	}
	return &generator{sets: sets, n: n, a: a, b: r.Uint64N(n)}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// text returns the i-th text and the index of its parameter set.
func (g *generator) text(i uint64) (string, int) {
	j := (g.a*i + g.b) % g.n
	p := int(j % uint64(len(g.sets)))
	return phrase(g.sets[p].core, int(j/uint64(len(g.sets)))), p
}

// take returns the next unused text; ok is false once every text of
// the run has been handed out.
func (g *generator) take() (text string, set int, ok bool) {
	i := g.next.Add(1) - 1
	if i >= g.n {
		return "", 0, false
	}
	text, set = g.text(i)
	return text, set, true
}
