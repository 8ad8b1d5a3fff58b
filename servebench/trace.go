package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"time"

	"arachnet/internal/agents/querymind"
	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/core"
	"arachnet/internal/nlq"
	"arachnet/internal/workflow"
)

// capFamilies are the capability modules whose executed steps the
// per-layer metrics time: those with a capability in the case-study
// and novel workflows. geo and stats capabilities run in none of them.
var capFamilies = []string{"nautilus", "xaminer", "bgp", "traceroute", "topo", "forensic", "synthesis"}

// traceAcc accumulates what the traced phase reads from each op's
// response or subscription delivery.
type traceAcc struct {
	stepsRun    int
	stepsCached int
	capUS       map[string]float64 // executed step time by capability family
	deliveries  int
	deltaSum    time.Duration // delivery time less the injection
	subRun      int           // steps a delivery's re-execution ran
	subCached   int           // and replayed from the step cache
	injects     int
	injectSum   time.Duration
}

func newTraceAcc() *traceAcc {
	return &traceAcc{capUS: map[string]float64{}}
}

func (t *traceAcc) merge(o *traceAcc) {
	t.stepsRun += o.stepsRun
	t.stepsCached += o.stepsCached
	for k, v := range o.capUS {
		t.capUS[k] += v
	}
	t.deliveries += o.deliveries
	t.deltaSum += o.deltaSum
	t.subRun += o.subRun
	t.subCached += o.subCached
	t.injects += o.injects
	t.injectSum += o.injectSum
}

// family is a capability's module: the name up to its first dot.
func family(capability string) string {
	if i := strings.IndexByte(capability, '.'); i > 0 {
		return capability[:i]
	}
	return capability
}

func (t *traceAcc) addStep(capability string, d time.Duration, cached bool) {
	if cached {
		t.stepsCached++
		return
	}
	t.stepsRun++
	t.capUS[family(capability)] += us(d)
}

// meanInject is the mean duration of the injections recorded.
func (t *traceAcc) meanInject() time.Duration {
	return t.injectSum / time.Duration(max(t.injects, 1))
}

// addResponse reads the steps[] records of one /v1/ask response.
func (t *traceAcc) addResponse(body []byte) {
	var rep struct {
		Steps []struct {
			Capability string `json:"capability"`
			DurationUS int64  `json:"duration_us"`
			Cached     bool   `json:"cached"`
		} `json:"steps"`
	}
	if json.Unmarshal(body, &rep) != nil {
		return
	}
	for _, s := range rep.Steps {
		t.addStep(s.Capability, time.Duration(s.DurationUS)*time.Microsecond, s.Cached)
	}
}

// addDelivery records one subscription delivery of a monitor round and
// the steps of the report it delivered.
func (t *traceAcc) addDelivery(ev delivery, rep *core.Report, injected time.Duration, start time.Time) {
	t.deliveries++
	t.deltaSum += ev.meta().Time.Sub(start) - injected
	run, cached := ev.steps()
	t.subRun += run
	t.subCached += cached
	if rep != nil && rep.Result != nil {
		for _, s := range rep.Result.Steps {
			t.addStep(s.Capability, s.Duration, s.Cached)
		}
	}
}

// layerInputs is what a workload feeds each layer's entry points in
// the traced run.
type layerInputs struct {
	sample []string      // texts for the planning layers
	next   func() string // the text of the next served call
	// capTexts are run without caches to time each capability family:
	// the case studies, or on novel every parameter set.
	capTexts []string
	curate   bool
	// freshRatio is the share of the run's ops that asked a parameter
	// set for the first time (novel only).
	freshRatio float64
}

// probeResult is one entry point's cost per call.
type probeResult struct {
	perCall time.Duration // median
	allocs  float64       // mean heap allocations
	calls   int
}

// entryPoint is one public function a probe calls; i counts its calls.
type entryPoint struct {
	name string
	fn   func(i int) error
}

const (
	probeBudget    = 1500 * time.Millisecond
	probeBurst     = 2 * time.Millisecond
	probeMinRounds = 5
	probeMaxCalls  = 1 << 14
)

// probe calls the entry points in turn, in short bursts, for about
// probeBudget, so drift in the deployment's state (history length,
// cache contents) reaches each alike. It returns each one's median time
// and mean heap allocations per call.
func probe(eps []entryPoint) (map[string]probeResult, error) {
	durs := make([][]time.Duration, len(eps))
	mallocs := make([]uint64, len(eps))
	for k := range eps {
		durs[k] = make([]time.Duration, 0, probeMaxCalls)
	}
	var before, after runtime.MemStats
	start := time.Now()
	for round := 0; round < probeMinRounds || time.Since(start) < probeBudget; round++ {
		for k, ep := range eps {
			runtime.ReadMemStats(&before)
			burst := time.Now()
			for len(durs[k]) < probeMaxCalls {
				t := time.Now()
				if err := ep.fn(len(durs[k])); err != nil {
					return nil, fmt.Errorf("probe %s: %w", ep.name, err)
				}
				durs[k] = append(durs[k], time.Since(t))
				if time.Since(burst) > probeBurst {
					break
				}
			}
			runtime.ReadMemStats(&after)
			mallocs[k] += after.Mallocs - before.Mallocs
		}
	}
	out := map[string]probeResult{}
	for k, ep := range eps {
		out[ep.name] = probeResult{
			perCall: medianDuration(durs[k]),
			allocs:  float64(mallocs[k]) / float64(len(durs[k])),
			calls:   len(durs[k]),
		}
	}
	return out, nil
}

// probes times each layer's public entry point on the workload's own
// inputs against the deployment's tenant System, after the timed
// phases. Asks run without curation, whose pass is probed on its own,
// so on curated the differences between the serve, jobs and core
// probes are not swamped by it. Entry points that mutate the tenant
// (scenario injection) run last, from traced().
func probes(d *deployment, in layerInputs) (map[string]probeResult, float64, error) {
	sys := d.sys
	env, reg := sys.Environment(), sys.Registry()
	data := env.Data()
	avail := querymind.DataAvailability{
		HasCrossLayerMap: data.HasCrossLayerMap,
		MapCoverage:      data.MapCoverage,
		HasTraceArchive:  data.HasTraceArchive,
		HasBGPStream:     data.HasBGPStream,
		WindowDays:       data.WindowDays,
	}
	qm, scout, weaver := querymind.New(), workflowscout.New(), solutionweaver.New()
	n := len(in.sample)
	specs := make([]nlq.Spec, n)
	problems := make([]*querymind.ProblemSpec, n)
	designs := make([]*workflowscout.Design, n)
	solutions := make([]*solutionweaver.Solution, n)
	for i, q := range in.sample {
		var err error
		specs[i] = nlq.Parse(q, env.Catalog)
		if problems[i], err = qm.Analyze(specs[i], avail); err != nil {
			return nil, 0, fmt.Errorf("analyze %q: %w", q, err)
		}
		if designs[i], err = scout.Design(problems[i], reg); err != nil {
			return nil, 0, fmt.Errorf("design %q: %w", q, err)
		}
		if solutions[i], err = weaver.Weave(designs[i].Chosen, reg); err != nil {
			return nil, 0, fmt.Errorf("weave %q: %w", q, err)
		}
	}
	ctx := context.Background()
	plain := core.AskWithoutCuration()
	observed := core.AskObserver(core.ObserverFunc(func(core.Event) error { return nil }))
	// The pipeline's cost when the plan cache hits and every step is
	// cached: ask each case study once so the probe's calls replay.
	for _, q := range caseStudies {
		if _, err := sys.Ask(ctx, q, plain); err != nil {
			return nil, 0, fmt.Errorf("ask %q: %w", q, err)
		}
	}
	var buf bytes.Buffer
	var respBytes, responses int
	out, err := probe([]entryPoint{
		{"nlq.parse", func(i int) error { specs[i%n] = nlq.Parse(in.sample[i%n], env.Catalog); return nil }},
		{"querymind.analyze", func(i int) error { _, err := qm.Analyze(specs[i%n], avail); return err }},
		{"workflowscout.design", func(i int) error { _, err := scout.Design(problems[i%n], reg); return err }},
		{"solutionweaver.weave", func(i int) error { _, err := weaver.Weave(designs[i%n].Chosen, reg); return err }},
		{"workflow.compile", func(i int) error { _, err := workflow.Compile(solutions[i%n].Workflow, reg); return err }},
		{"core.ask", func(int) error { _, err := sys.Ask(ctx, in.next(), plain); return err }},
		{"core.ask_hit", func(i int) error {
			_, err := sys.Ask(ctx, caseStudies[i%len(caseStudies)], plain)
			return err
		}},
		{"core.ask_observed", func(int) error { _, err := sys.Ask(ctx, in.next(), plain, observed); return err }},
		{"jobs.submit_wait", func(int) error {
			j, err := sys.Submit(ctx, in.next(), plain)
			if err != nil {
				return err
			}
			_, err = j.Wait(ctx)
			return err
		}},
		{"serve.roundtrip", func(int) error {
			_, status, err := d.post(askBody(in.next(), false), &buf)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
			}
			respBytes += buf.Len()
			responses++
			return err
		}},
		{"registrycurator.curate", func(int) error {
			_, err := registrycurator.New().Curate(sys.History(), reg.Clone())
			return err
		}},
	})
	if err != nil {
		return nil, 0, err
	}
	return out, float64(respBytes) / float64(responses), nil
}

// capabilityCosts runs texts without caches or curation on a System
// of its own and returns the mean executed step time per capability
// family.
func capabilityCosts(texts []string) (map[string]time.Duration, error) {
	sys, err := newNoCacheSystem()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sum := map[string]time.Duration{}
	cnt := map[string]int{}
	for _, q := range texts {
		rep, err := sys.Ask(context.Background(), q, core.AskNoCache(), core.AskWithoutCuration())
		if err != nil {
			return nil, fmt.Errorf("no-cache %q: %w", q, err)
		}
		for _, s := range rep.Result.Steps {
			f := family(s.Capability)
			sum[f] += s.Duration
			cnt[f]++
		}
	}
	out := map[string]time.Duration{}
	for f, d := range sum {
		out[f] = d / time.Duration(cnt[f])
	}
	return out, nil
}

// subscriptionRounds measures standing-query rounds on the deployment
// for workloads whose own ops are not monitor rounds.
func subscriptionRounds(d *deployment, seed uint64, rounds int) (*traceAcc, error) {
	m, err := newMonitorMix(d, seed)
	if err != nil {
		return nil, err
	}
	defer m.close()
	if err := m.warmUp(); err != nil {
		return nil, err
	}
	rec := &recorder{tr: newTraceAcc()}
	for range rounds {
		m.op(0, rec)
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("subscription rounds: %s", rec.firstErr)
	}
	return rec.tr, nil
}

func meanDuration(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(max(len(ds), 1))
}

// traced runs the per-layer breakdown: an untraced and a traced half
// of the timed phase over the same op sequence, then the layer probes.
// Nothing inside the program is instrumented; every figure comes from
// responses, counters and calls into public entry points made here.
func traced(o options, d *deployment, mx mix, dur time.Duration, w io.Writer) (*result, error) {
	plain, err := timedPhase(mx, dur/2, false)
	if err != nil {
		return nil, err
	}
	cache0, shed0 := d.sys.CacheStats(), d.srv.Scheduler().Stats().Shed
	tr, err := timedPhase(mx, dur-dur/2, true)
	if err != nil {
		return nil, err
	}
	cache1, shed1 := d.sys.CacheStats(), d.srv.Scheduler().Stats().Shed
	fmt.Fprintf(w, "traced phase:\n")
	tr.report(w)

	in := mx.inputs()
	pr, respBytes, err := probes(d, in)
	if err != nil {
		return nil, err
	}
	caps, err := capabilityCosts(in.capTexts)
	if err != nil {
		return nil, err
	}
	acc, sub := tr.rec.tr, tr.rec.tr
	if o.workload != "monitor" {
		// Injections change the tenant's environment, so these rounds
		// come after every other probe.
		if sub, err = subscriptionRounds(d, o.seed, 3); err != nil {
			return nil, err
		}
	}

	ops := float64(tr.completed)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	rt, sw, ao := pr["serve.roundtrip"].perCall, pr["jobs.submit_wait"].perCall, pr["core.ask_observed"].perCall
	put("serve.roundtrip_us", us(rt), "us")
	put("serve.http_us", us(rt-sw), "us")
	put("serve.resp_bytes", respBytes, "B")
	put("jobs.submit_wait_us", us(sw), "us")
	put("jobs.handoff_us", us(sw-ao), "us")
	put("scheduler.shed", float64(shed1-shed0), "count")
	put("core.ask_us", us(pr["core.ask"].perCall), "us")
	put("core.ask_observed_us", us(ao), "us")
	for _, name := range []string{"workflow.compile", "nlq.parse", "querymind.analyze",
		"workflowscout.design", "solutionweaver.weave", "registrycurator.curate"} {
		put(name+"_us", us(pr[name].perCall), "us")
		put(name+"_allocs", pr[name].allocs, "count")
	}
	put("registrycurator.history_len", float64(len(d.sys.History())), "count")
	plan := counterDelta(cache0.Plan, cache1.Plan)
	step := counterDelta(cache0.Step, cache1.Step)
	put("plancache.hit_ratio", plan.HitRatio(), "ratio")
	put("plancache.evictions", float64(plan.Evictions), "count")
	put("stepcache.hit_ratio", step.HitRatio(), "ratio")
	put("stepcache.evictions", float64(step.Evictions), "count")
	put("stepcache.bytes", float64(cache1.Step.Bytes), "B")
	put("novel.fresh_param_ratio", in.freshRatio, "ratio")
	put("steps.executed_per_op", float64(acc.stepsRun)/ops, "count")
	put("steps.cached_per_op", float64(acc.stepsCached)/ops, "count")
	for _, f := range capFamilies {
		c, ok := caps[f]
		if !ok {
			return nil, fmt.Errorf("no %s capability ran in the workload's workflows", f)
		}
		put("cap."+f+".exec_us", us(c), "us")
	}
	put("env.inject_ms", ms(sub.meanInject()), "ms")
	deliveries := float64(max(sub.deliveries, 1))
	put("subscribe.delta_ms", ms(sub.deltaSum)/deliveries, "ms")
	put("subscribe.steps_run", float64(sub.subRun)/deliveries, "count")
	put("subscribe.steps_cached", float64(sub.subCached)/deliveries, "count")
	put("runtime.gc_per_kop", float64(tr.numGC)*1000/ops, "count")

	layers, mean := breakdown(o.workload, tr, acc, pr, plan, in)
	var sum float64
	for _, l := range layers {
		sum += l.us
	}
	put("trace.accounted_ratio", sum/us(mean), "ratio")
	put("trace.overhead_ratio", ms(quantile(tr.sorted, 0.5))/ms(quantile(plain.sorted, 0.5)), "ratio")

	fmt.Fprintf(w, "layer breakdown (mean latency %.1f us over %d traced samples):\n", us(mean), len(tr.rec.lat))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-50s %10.1f us %6.1f%%\n", l.name, l.us, 100*l.us/us(mean))
	}
	fmt.Fprintf(w, "  %-50s %10.1f us %6.1f%%\n", "accounted (sum of the rows above)", sum, 100*sum/us(mean))
	fmt.Fprintf(w, "  %-50s %10.1f us %6.1f%%\n", "unattributed (mean - accounted)", us(mean)-sum, 100*(1-sum/us(mean)))
	if in.curate {
		// The probes call Curate one at a time; under load the two
		// clients queue for the System's one curateMu. A pass that finds
		// no new observation is skipped, so the row above is an upper
		// bound, and the gap can be negative.
		gap := us(quantile(tr.sorted, 0.5)) - sum
		why := "waiting on the serialized curation pass (two clients, one curateMu)"
		if gap < 0 {
			why = "fewer than one curation pass per op: an ask whose observation the other client's pass covered skips its own"
		}
		fmt.Fprintf(w, "  p50_ms - accounted = %.1f us: %s\n", gap, why)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	res := tr.result(m)
	res.Attempted += plain.rec.attempted
	res.Failed += plain.rec.failed
	res.Correct = res.Correct && plain.rec.mismatched == 0
	return res, nil
}

func counterDelta(a, b core.CacheCounters) core.CacheCounters {
	return core.CacheCounters{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Evictions: b.Evictions - a.Evictions}
}

// layer is one row of the busy-time breakdown.
type layer struct {
	name string
	us   float64 // busy time per op
}

// breakdown attributes the mean traced sample latency to layers, each
// measured on its own: a probed per-call cost times the calls the
// system made per sample (plan-cache misses, curation passes), the
// executed steps' recorded durations, and the injections. No row is a
// remainder, so the rows need not add up to the mean; what they leave
// out (queueing, waiting on locks, work no probe covers) stays
// unattributed.
func breakdown(workload string, tr *phase, acc *traceAcc, pr map[string]probeResult, plan core.CacheCounters, in layerInputs) ([]layer, time.Duration) {
	mean := meanDuration(tr.rec.lat)
	samples := float64(len(tr.rec.lat))
	var capUS float64
	for _, v := range acc.capUS {
		capUS += v
	}
	misses := float64(plan.Misses) / samples
	passes := 0.0
	if in.curate {
		passes = 1
	}
	per := func(name string, calls float64) float64 { return us(pr[name].perCall) * calls }
	rt, sw, ao := us(pr["serve.roundtrip"].perCall), us(pr["jobs.submit_wait"].perCall), us(pr["core.ask_observed"].perCall)
	// Every monitor sample starts with the round's injection; the other
	// workloads' samples are HTTP round trips.
	first := layer{"serve (HTTP handler + client)", rt - sw}
	if workload == "monitor" {
		first = layer{"env.InjectCableFailureScenario", us(acc.meanInject())}
	}
	return []layer{
		first,
		{"jobs + scheduler handoff", sw - ao},
		{"core pipeline + engine (plan-cache hit)", per("core.ask_hit", 1)},
		{"nlq.Parse", per("nlq.parse", misses)},
		{"querymind.Analyze", per("querymind.analyze", misses)},
		{"workflowscout.Design", per("workflowscout.design", misses)},
		{"solutionweaver.Weave", per("solutionweaver.weave", misses)},
		{"workflow.Compile", per("workflow.compile", misses)},
		{"registrycurator.Curate (at most one pass per op)", per("registrycurator.curate", passes)},
		{"capabilities (executed steps)", capUS / samples},
	}, mean
}
