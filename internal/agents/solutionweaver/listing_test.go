package solutionweaver_test

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/core"
	"arachnet/internal/netsim"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// TestListingMatchesReference requires every listing of the planning
// corpus, and its LoC, to equal the reference renderer's byte for byte.
func TestListingMatchesReference(t *testing.T) {
	lists, floats := 0, 0
	for _, p := range planCorpus(t) {
		requireReference(t, p.label, p.solution, p.reg)
		composite := false
		for _, s := range p.solution.Workflow.Steps {
			composite = composite || strings.HasPrefix(s.Capability, "composite.")
		}
		if !composite {
			continue
		}
		for _, s := range p.solution.Workflow.Steps {
			for _, b := range s.Inputs {
				switch b.Literal.(type) {
				case []string:
					lists++
				case float64:
					floats++
				}
			}
		}
	}
	if lists == 0 || floats == 0 {
		t.Errorf("plans through composites carry %d list and %d float literals; want both", lists, floats)
	}
}

// requireReference fails t unless sol's listing and LoC equal what the
// reference renderer makes of sol's woven workflow, and the listing's
// header docstring closes on its own line.
func requireReference(t *testing.T, label string, sol *solutionweaver.Solution, reg *registry.Registry) {
	t.Helper()
	want, code := generateCode(sol.Workflow, reg), sol.Code()
	if code != want {
		got, ref := strings.Split(code, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(got) || i < len(ref); i++ {
			var g, r string
			if i < len(got) {
				g = got[i]
			}
			if i < len(ref) {
				r = ref[i]
			}
			if g != r {
				t.Fatalf("%s: listing line %d is %q, reference %q", label, i+1, g, r)
			}
		}
	}
	if n := countLoC(want); sol.LoC() != n {
		t.Fatalf("%s: LoC %d, reference %d", label, sol.LoC(), n)
	}
	requireDocstringCloses(t, label, code, sol.Workflow.Query)
}

// requireDocstringCloses reads the listing's header docstring the way
// Python does — it opens at the first """, a backslash escapes the
// next character, the next """ closes it — and fails t unless it
// closes on the header's own `"""` line, after the Query and Plan
// lines.
func requireDocstringCloses(t *testing.T, label, code, query string) {
	t.Helper()
	open := strings.Index(code, `"""`)
	if open < 0 {
		t.Fatalf("%s: listing has no docstring", label)
	}
	i := open + 3
	for ; i < len(code) && !strings.HasPrefix(code[i:], `"""`); i++ {
		if code[i] == '\\' {
			i++
		}
	}
	if i >= len(code) {
		t.Fatalf("%s: header docstring never closes", label)
	}
	lines := strings.Split(code, "\n")
	at := strings.Count(code[:i], "\n")
	if want := 5 + strings.Count(query, "\n"); at != want || lines[at] != `"""` {
		t.Fatalf("%s: header docstring closes on line %d, %q; want line %d, %q", label, at+1, lines[at], want+1, `"""`)
	}
}

// TestHeaderDocstringClosesOnItsOwnLine plans queries that try to end
// the listing's docstring early and run code when it is imported.
func TestHeaderDocstringClosesOnItsOwnLine(t *testing.T) {
	env, err := core.NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	const cs1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	for _, q := range []string{
		cs1 + ` """ + __import__("os").system("id") + """`,
		cs1 + ` \""" + __import__("os").system("id") + \"""`,
		cs1 + " \\",
		cs1 + "\n\"\"\"\nimport os\n\"\"\"",
	} {
		rep, err := sys.Ask(context.Background(), q, core.AskWithoutCuration())
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		code := rep.Solution.Code()
		requireDocstringCloses(t, q, code, q)
		if strings.Contains(code, "\n"+`"""`+"\nimport os") {
			t.Errorf("%q: the query's text left the docstring", q)
		}
	}
}

// FuzzListing renders generated workflows — step IDs, framework names,
// descriptions, constraints, literals of every kind, output names and
// query text all drawn from the input — and requires each listing to
// equal the reference renderer's, with its docstring intact.
func FuzzListing(f *testing.F) {
	f.Add("Identify the impact at a country level due to SeaMeWe-5 cable failure", "s", "nautilus",
		"Resolve a cable to its links", "needs a cross-layer map", "SeaMeWe-5", 0.1, uint64(0))
	f.Add(`cable failure """ + __import__("os").system("id") + """`, "step", "bgp", `say "hi"\`, "%d%%", `a"b\c`, 1e21, uint64(0x5f3c_a7e1_9b24))
	f.Add("line one\nline two\r\n\"\"\"", "x.y", "geo-ip", "déjà vu ", " ", "\xff\xfe", -0.0, ^uint64(0))
	f.Add("white\n\u00a0\u3000\n\u0085\t\n\x85\n\xe2\x80\n", "s", "fw", "\u2028", "\u00a0", " \v", 2.5, uint64(7))
	f.Fuzz(func(t *testing.T, query, id, framework, desc, constraint, lit string, num float64, shape uint64) {
		reg, wf := fuzzWorkflow(t, query, id, framework, desc, constraint, lit, num, shape)
		sol, err := solutionweaver.New().Weave(wf, reg)
		if err != nil {
			t.Fatalf("generated workflow rejected: %v\n%s", err, wf.Describe())
		}
		requireReference(t, "fuzz", sol, reg)
	})
}

// fuzzWorkflow builds a registry whose source capability carries the
// given framework, description and constraint, and a valid workflow
// over it whose shape — which capabilities run, which literal kinds
// bind, which outputs and checks are declared — is read from shape.
func fuzzWorkflow(t *testing.T, query, id, framework, desc, constraint, lit string, num float64, shape uint64) (*registry.Registry, *workflow.Workflow) {
	t.Helper()
	if framework == "" {
		framework = "fw"
	}
	if desc == "" {
		desc = "source"
	}
	impl := func(*registry.Call) error { return nil }
	reg := registry.New()
	for _, c := range []registry.Capability{
		{
			Name: framework + ".source", Framework: framework, Description: desc,
			Constraints: []string{constraint, desc + constraint},
			Inputs: []registry.Port{
				{Name: "name", Type: registry.TString},
				{Name: "fail_prob", Type: registry.TFloat, Optional: true},
				{Name: "types", Type: registry.TStringList, Optional: true},
				{Name: "strict", Type: registry.TBool, Optional: true},
				{Name: "limit", Type: registry.TInt, Optional: true},
			},
			Outputs: []registry.Port{
				{Name: "links", Type: registry.TLinkSet},
				{Name: "ips", Type: registry.TIPSet},
				{Name: "prob", Type: registry.TFloat},
			},
		},
		{
			Name: "xaminer.impact", Framework: "xaminer", Description: "impact of lost links",
			Inputs: []registry.Port{
				{Name: "links", Type: registry.TLinkSet},
				{Name: "ips", Type: registry.TIPSet, Optional: true},
			},
			Outputs: []registry.Port{{Name: "report", Type: registry.TImpact}, {Name: "geo", Type: registry.TGeoTable}},
		},
		{
			Name: "synthesis.global", Framework: "synthesis", Description: "combine impacts",
			Inputs:  []registry.Port{{Name: "report", Type: registry.TImpact}},
			Outputs: []registry.Port{{Name: "global", Type: registry.TGlobal}},
		},
		{
			Name: "topo.cascade", Framework: "topo", Description: "cascade and timeline",
			Inputs:  []registry.Port{{Name: "links", Type: registry.TLinkSet}},
			Outputs: []registry.Port{{Name: "timeline", Type: registry.TTimeline}, {Name: "cascade", Type: registry.TCascade}},
		},
		{
			Name: "forensic.verdict", Framework: "forensic", Description: "attribute the anomaly",
			Inputs:  []registry.Port{{Name: "prob", Type: registry.TFloat, Optional: true}},
			Outputs: []registry.Port{{Name: "verdict", Type: registry.TVerdict}, {Name: "anomaly", Type: registry.TAnomaly}},
		},
	} {
		c.Impl = impl
		if err := reg.Register(c); err != nil {
			t.Fatal(err)
		}
	}

	bits := shape
	take := func(n uint64) uint64 {
		v := bits % n
		bits /= n
		return v
	}
	literal := func() any {
		switch take(8) {
		case 0:
			return lit
		case 1:
			return num
		case 2:
			return []string{lit, id, ""}
		case 3:
			return take(2) == 1
		case 4:
			return len(lit) - len(id)
		case 5:
			return nil
		case 6:
			return []string(nil)
		default:
			return []float64{num, -num}
		}
	}
	prefix := strings.ReplaceAll(id, ".", "_")
	if prefix == "" {
		prefix = "s"
	}
	wf := &workflow.Workflow{Name: "fuzz", Query: query, Outputs: map[string]string{}}
	have := map[registry.DataType]string{}
	add := func(capName string, bind map[string]workflow.Binding) {
		var in workflow.Inputs
		for name, b := range bind {
			in = append(in, workflow.Input{Name: name, Binding: b})
		}
		slices.SortFunc(in, func(a, b workflow.Input) int { return strings.Compare(a.Name, b.Name) })
		sid := prefix + strconv.Itoa(len(wf.Steps)+1)
		wf.Steps = append(wf.Steps, workflow.Step{ID: sid, Capability: capName, Inputs: in})
		c, _ := reg.Get(capName)
		for _, out := range c.Outputs {
			have[out.Type] = sid + "." + out.Name
		}
	}
	source := func() {
		in := map[string]workflow.Binding{"name": workflow.Lit(literal())}
		for _, opt := range []string{"fail_prob", "types", "strict", "limit"} {
			if take(2) == 1 {
				in[opt] = workflow.Lit(literal())
			}
		}
		add(framework+".source", in)
	}
	source()
	for n := take(6); n > 0; n-- {
		switch take(5) {
		case 0:
			source()
		case 1:
			in := map[string]workflow.Binding{"links": {Ref: have[registry.TLinkSet]}}
			if take(2) == 1 {
				in["ips"] = workflow.Binding{Ref: have[registry.TIPSet]}
			}
			add("xaminer.impact", in)
		case 2:
			if ref, ok := have[registry.TImpact]; ok {
				add("synthesis.global", map[string]workflow.Binding{"report": {Ref: ref}})
			}
		case 3:
			add("topo.cascade", map[string]workflow.Binding{"links": {Ref: have[registry.TLinkSet]}})
		default:
			in := map[string]workflow.Binding{}
			if take(2) == 1 {
				in["prob"] = workflow.Binding{Ref: have[registry.TFloat]}
			}
			add("forensic.verdict", in)
		}
	}
	// Declare some produced artifacts as outputs, one under the
	// literal's name, and check one of them with a check of our own.
	for _, dt := range []registry.DataType{registry.TLinkSet, registry.TImpact, registry.TGlobal,
		registry.TTimeline, registry.TCascade, registry.TVerdict, registry.TAnomaly} {
		if ref, ok := have[dt]; ok && take(2) == 1 {
			wf.Outputs[string(dt)] = ref
		}
	}
	wf.Outputs[lit] = have[registry.TFloat]
	wf.Checks = []workflow.QualityCheck{{
		Name: lit, Kind: workflow.QualityKind(desc), Ref: have[registry.TIPSet],
		Assert: func(any) (bool, string) { return true, "" },
	}}
	return reg, wf
}

// BenchmarkWeave weaves every design of the planning corpus once per
// iteration and reports the mean time per plan.
func BenchmarkWeave(b *testing.B) {
	plans := planCorpus(b)
	weaver := solutionweaver.New()
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range plans {
			if _, err := weaver.Weave(p.design.Chosen, p.reg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(plans)), "ns/plan")
}

// BenchmarkAppendCode renders the listing of every plan of the
// planning corpus once per iteration into one buffer, what each read
// of a Solution's listing costs, and reports the mean time per plan.
func BenchmarkAppendCode(b *testing.B) {
	plans := planCorpus(b)
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range plans {
			buf = p.solution.AppendCode(buf[:0])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(plans)), "ns/plan")
}
