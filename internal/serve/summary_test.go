package serve

// The summary encoder's contract: every site that serves a summary —
// /v1/ask's 200 and 422 bodies, GET /v1/jobs/{id}, the SSE done frame
// and the subscription_started frame — serves exactly the bytes
// encoding/json writes for the summary shape, on plan misses, on
// replays and on replays that reuse memoized bytes. reportJSON,
// stepJSON and summarizeReport are that shape and its reference
// encoder.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"arachnet/internal/agents/registrycurator"
	"arachnet/internal/agents/solutionweaver"
	"arachnet/internal/agents/workflowscout"
	"arachnet/internal/core"
	"arachnet/internal/nlq"
	"arachnet/internal/registry"
	"arachnet/internal/workflow"
)

// reportJSON summarizes one pipeline run.
type reportJSON struct {
	Query string `json:"query"`
	// Intent is QueryMind's reading of the query.
	Intent string `json:"intent,omitempty"`
	// Strategy is WorkflowScout's chosen design strategy.
	Strategy string `json:"strategy,omitempty"`
	// Code is the generated workflow program.
	Code string `json:"code,omitempty"`
	// Steps records the executed workflow steps in order.
	Steps []stepJSON `json:"steps,omitempty"`
	// QualityScore is the fraction of passed quality checks.
	QualityScore *float64 `json:"quality_score,omitempty"`
	// Outputs carries the declared workflow outputs, JSON-encoded when
	// possible and rendered as text otherwise.
	Outputs map[string]json.RawMessage `json:"outputs,omitempty"`
	// Promotions names composites the curator promoted after this run.
	Promotions []string `json:"promotions,omitempty"`
	ElapsedUS  int64    `json:"elapsed_us"`
}

type stepJSON struct {
	ID         string `json:"id"`
	Capability string `json:"capability"`
	DurationUS int64  `json:"duration_us"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
}

// summarizeReport builds the wire summary of a (possibly partial, or
// nil) report.
func summarizeReport(rep *core.Report) *reportJSON {
	if rep == nil {
		return nil
	}
	out := &reportJSON{
		Query:     rep.Query,
		Intent:    string(rep.Spec.Intent),
		ElapsedUS: rep.Elapsed.Microseconds(),
	}
	if rep.Design != nil {
		out.Strategy = rep.Design.Strategy
	}
	if rep.Solution != nil {
		out.Code = rep.Solution.Code
	}
	if rep.Result != nil {
		for _, st := range rep.Result.Steps {
			sj := stepJSON{
				ID:         st.ID,
				Capability: st.Capability,
				DurationUS: st.Duration.Microseconds(),
				Cached:     st.Cached,
			}
			if st.Err != nil {
				sj.Error = st.Err.Error()
			}
			out.Steps = append(out.Steps, sj)
		}
		q := rep.Result.QualityScore()
		out.QualityScore = &q
		if len(rep.Result.Outputs) > 0 {
			out.Outputs = make(map[string]json.RawMessage, len(rep.Result.Outputs))
			for name, v := range rep.Result.Outputs {
				out.Outputs[name] = jsonValue(v)
			}
		}
	}
	for _, p := range rep.Promotions {
		out.Promotions = append(out.Promotions, p.Capability.Name)
	}
	return out
}

// refEncode encodes v the way writeJSON does.
func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refRaw is the reference summary as a json.Marshal'ed value, what the
// SSE frames embedded before the summary became a json.RawMessage.
func refRaw(t testing.TB, rep *core.Report) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(summarizeReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// caseStudies are the paper's four case-study queries.
var caseStudies = []string{
	queryCS1,
	"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
	"Analyze the cascading effects of submarine cable failures between Europe and Asia",
	"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
}

// fixtureEnv is the small world with scenario seed 5, on which all
// four case studies are feasible.
func fixtureEnv(t testing.TB) *core.Environment {
	t.Helper()
	env := testEnv(t)
	if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return env
}

// twinSystem builds a System over its own clone of env that, asked
// the same sequence as a tenant, computes the same reports.
func twinSystem(t testing.TB, env *core.Environment) *core.System {
	t.Helper()
	sys, err := core.NewSystem(env.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

var ctx = context.Background()

var timingRe = regexp.MustCompile(`"(elapsed_us|duration_us)":[0-9]+`)

// sameSummary compares two bodies with every elapsed_us and
// duration_us zeroed.
func sameSummary(t *testing.T, label string, got, want []byte) {
	t.Helper()
	g := timingRe.ReplaceAll(got, []byte(`"$1":0`))
	w := timingRe.ReplaceAll(want, []byte(`"$1":0`))
	if !bytes.Equal(g, w) {
		t.Errorf("%s: served bytes differ from the reference encoder\nserved:    %.400s\nreference: %.400s", label, g, w)
	}
}

func readBody(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rounds are the three runs of each case study the site test serves:
// the first plans afresh, the second replays the cached plan and fills
// its memo, the third serves the memoized bytes.
var rounds = []string{"miss", "replay", "memoized replay"}

func TestSummaryMatchesReference(t *testing.T) {
	env := fixtureEnv(t)

	t.Run("ask 200", func(t *testing.T) {
		_, ts := startServer(t, Config{Env: env})
		twin := twinSystem(t, env)
		for i, q := range caseStudies {
			for r, round := range rounds {
				label := fmt.Sprintf("CS%d %s", i+1, round)
				resp := postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": q, "no_curation": true})
				got := readBody(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", label, resp.StatusCode, got)
				}
				if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
					t.Errorf("%s: Content-Length %q for a %d-byte body", label, cl, len(got))
				}
				rep, err := twin.Ask(ctx, q, core.AskWithoutCuration())
				if err != nil {
					t.Fatal(err)
				}
				if (r > 0) != (core.ReplayMemo(rep) != nil) {
					t.Errorf("%s: twin memo %p", label, core.ReplayMemo(rep))
				}
				sameSummary(t, label, got, refEncode(t, summarizeReport(rep)))
			}
		}
	})

	t.Run("ask 422", func(t *testing.T) {
		// Vetoing after execution fails each run with its whole report.
		veto := core.AskObserver(core.ObserverFunc(func(ev core.Event) error {
			if sc, ok := ev.(*core.StageCompleted); ok && sc.Stage == core.StageResult {
				return errors.New("vetoed <after> execution")
			}
			return nil
		}))
		_, ts := startServer(t, Config{Env: env, CallOptions: []core.AskOption{veto}})
		twin := twinSystem(t, env)
		type refError struct {
			Error  string      `json:"error"`
			Report *reportJSON `json:"report,omitempty"`
		}
		for i, q := range caseStudies {
			for _, round := range rounds {
				label := fmt.Sprintf("CS%d %s", i+1, round)
				resp := postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": q, "no_curation": true})
				got := readBody(t, resp)
				if resp.StatusCode != http.StatusUnprocessableEntity {
					t.Fatalf("%s: status %d: %s", label, resp.StatusCode, got)
				}
				if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
					t.Errorf("%s: Content-Length %q for a %d-byte body", label, cl, len(got))
				}
				rep, err := twin.Ask(ctx, q, veto, core.AskWithoutCuration())
				if err == nil {
					t.Fatalf("%s: twin run not vetoed", label)
				}
				sameSummary(t, label, got, refEncode(t, refError{Error: err.Error(), Report: summarizeReport(rep)}))
			}
		}
	})

	t.Run("jobs and done frames", func(t *testing.T) {
		srv, ts := startServer(t, Config{Env: env})
		tn := srv.Tenant("default")
		type refJob struct {
			core.JobSummary
			Report *reportJSON `json:"report,omitempty"`
		}
		for i, q := range caseStudies {
			for _, round := range rounds {
				label := fmt.Sprintf("CS%d %s", i+1, round)
				var sub struct {
					ID uint64 `json:"id"`
				}
				decodeBody(t, postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": q, "no_curation": true}), &sub)
				awaitJobState(t, tn, sub.ID, core.JobDone)
				var job *core.Job
				for _, j := range tn.System().Jobs() {
					if j.ID() == sub.ID {
						job = j
					}
				}
				rep, err := job.Wait(ctx)
				if err != nil {
					t.Fatal(err)
				}

				resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, sub.ID))
				if err != nil {
					t.Fatal(err)
				}
				got := readBody(t, resp)
				sameSummary(t, label+" GET /v1/jobs/{id}", got, refEncode(t, refJob{JobSummary: job.Summary(), Report: summarizeReport(rep)}))

				resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%d/events", ts.URL, sub.ID))
				if err != nil {
					t.Fatal(err)
				}
				frames := readSSE(t, resp, func(f sseFrame) bool { return f.Event == "done" })
				resp.Body.Close()
				var done *core.Done
				for ev := range job.Events() {
					if d, ok := ev.(*core.Done); ok {
						done = d
					}
				}
				if len(frames) == 0 || frames[len(frames)-1].Event != "done" || done == nil {
					t.Fatalf("%s: no done frame", label)
				}
				// Only the report's encoding changed: the reference frame
				// is the served frame with the reference summary in it.
				frame := encodeEvent(done)
				frame.Report = refRaw(t, done.Report)
				want, err := json.Marshal(frame)
				if err != nil {
					t.Fatal(err)
				}
				sameSummary(t, label+" done frame", []byte(frames[len(frames)-1].Raw), want)
			}
		}
	})

	t.Run("subscription_started frames", func(t *testing.T) {
		srv, ts := startServer(t, Config{Env: env})
		tn := srv.Tenant("default")
		for i, q := range caseStudies {
			for _, round := range rounds {
				label := fmt.Sprintf("CS%d %s", i+1, round)
				var created subscriptionJSON
				decodeBody(t, postJSON(t, ts.URL+"/v1/subscriptions", map[string]any{"query": q}), &created)
				resp, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/events?detach=1", ts.URL, created.ID))
				if err != nil {
					t.Fatal(err)
				}
				frames := readSSE(t, resp, func(f sseFrame) bool { return f.Event == "subscription_started" })
				resp.Body.Close()
				sub := tn.System().Subscription(created.ID)
				events := sub.Events()
				started, ok := (<-events).(*core.SubscriptionStarted)
				if len(frames) != 1 || !ok {
					t.Fatalf("%s: subscription_started is not the first frame", label)
				}
				if started.Err != nil {
					t.Fatalf("%s: baseline failed: %v", label, started.Err)
				}
				frame := encodeSubEvent(started)
				frame.Report = refRaw(t, started.Report)
				want, err := json.Marshal(frame)
				if err != nil {
					t.Fatal(err)
				}
				sameSummary(t, label, []byte(frames[0].Raw), want)
				sub.Close()
				for range events {
				}
			}
		}
	})
}

// TestConcurrentReplaysServeOneEncoding races the first replays of a
// plan to fill its memo: every concurrent replay must serve the same
// body, elapsed time aside.
func TestConcurrentReplaysServeOneEncoding(t *testing.T) {
	srv, err := NewServer(Config{Env: fixtureEnv(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	for i, q := range caseStudies {
		body, _ := json.Marshal(map[string]any{"query": q, "no_curation": true})
		serve := func() []byte {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ask", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("CS%d: status %d: %s", i+1, rec.Code, rec.Body.Bytes())
			}
			return timingRe.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`))
		}
		serve() // the plan miss fills the caches
		const askers, asks = 4, 8
		bodies := make([][]byte, askers*asks)
		var wg sync.WaitGroup
		for g := 0; g < askers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for a := 0; a < asks; a++ {
					bodies[g*asks+a] = serve()
				}
			}(g)
		}
		wg.Wait()
		for j, b := range bodies {
			if !bytes.Equal(b, bodies[0]) {
				t.Fatalf("CS%d: concurrent replay %d served\n%.300s\nwhere replay 0 served\n%.300s", i+1, j, b, bodies[0])
			}
		}
	}
}

// TestSummaryShapes checks the reference equivalence on report shapes
// the case studies never produce.
func TestSummaryShapes(t *testing.T) {
	ch := make(chan int)
	for _, tc := range []struct {
		name string
		rep  *core.Report
	}{
		{"nil", nil},
		{"query only", &core.Report{Query: "q"}},
		{"empty result", &core.Report{Query: "q", Design: &workflowscout.Design{}, Solution: &solutionweaver.Solution{}, Result: &workflow.Result{Outputs: map[string]any{}}}},
		{"errors and odd values", &core.Report{
			Query: "q",
			Result: &workflow.Result{
				Steps: []workflow.StepStat{
					{ID: "s1", Capability: "a", Duration: 1500 * time.Nanosecond, Err: errors.New("")},
					{ID: "s2", Capability: "b", Duration: 3 * time.Second, Err: errors.New("boom <&>")},
				},
				Checks:  []workflow.CheckResult{{Passed: true}, {}, {}},
				Outputs: map[string]any{"nan": math.NaN(), "chan": ch, "nil": nil, "html": "<a&b>", "b": []int{1}, "a": map[string]int{"z": 1, "y": 2}},
			},
			Promotions: []registrycurator.Promotion{{Capability: registry.Capability{Name: "composite.x"}}, {}},
		}},
	} {
		got := appendSummary(nil, tc.rep)
		want := refEncode(t, summarizeReport(tc.rep))
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\nappendSummary: %s\nreference:     %s", tc.name, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, 1, 0.5, 1.0 / 3, 2.0 / 3, 123.456, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-300, 1e20, 1e21, 1.25e22, 5e-324, math.MaxFloat64, -0.25, -1e-7} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// FuzzSummary requires appendSummary to equal the reference encoder
// byte for byte on reports built from arbitrary field values.
func FuzzSummary(f *testing.F) {
	sys := twinSystem(f, fixtureEnv(f))
	for _, q := range caseStudies {
		rep, err := sys.Ask(ctx, q, core.AskWithoutCuration())
		if err != nil {
			f.Fatal(err)
		}
		st := rep.Result.Steps[0]
		key := ""
		for name := range rep.Result.Outputs {
			if key == "" || name < key {
				key = name
			}
		}
		passed := 0
		for _, c := range rep.Result.Checks {
			if c.Passed {
				passed++
			}
		}
		f.Add(rep.Query, string(rep.Spec.Intent), rep.Design.Strategy, rep.Solution.Code,
			st.ID, st.Capability, "", key, string(jsonValue(rep.Result.Outputs[key])),
			uint8(passed), uint8(len(rep.Result.Checks)), st.Cached, "")
	}
	for _, s := range []string{
		"<>&", `"\`,
		"\b\f\n\r\t", "\x01", "\x1f", "\x7f",
		"\xff", "\xe2\x80",
		"\xe2\x80\xa8", "\xe2\x80\xa9", "\xc3\xa9",
	} {
		f.Add(s, s, s, s, s, s, s, s, s, uint8(1), uint8(3), true, s)
	}
	f.Fuzz(func(t *testing.T, query, intent, strategy, code, stepID, capability, errText, outKey, outVal string, passed, total uint8, cached bool, promotion string) {
		rep := &core.Report{
			Query:    query,
			Spec:     nlq.Spec{Intent: nlq.Intent(intent)},
			Design:   &workflowscout.Design{Strategy: strategy},
			Solution: &solutionweaver.Solution{Code: code},
			Result: &workflow.Result{
				Steps:   []workflow.StepStat{{ID: stepID, Capability: capability, Duration: time.Duration(len(code)) * time.Microsecond, Cached: cached}},
				Outputs: map[string]any{outKey: outVal, "n": float64(passed)},
			},
		}
		if errText != "" {
			rep.Result.Steps[0].Err = errors.New(errText)
		}
		for i := 0; i < int(total); i++ {
			rep.Result.Checks = append(rep.Result.Checks, workflow.CheckResult{Passed: i < int(passed)})
		}
		if promotion != "" {
			rep.Promotions = []registrycurator.Promotion{{Capability: registry.Capability{Name: promotion}}}
		}
		got := appendSummary(nil, rep)
		want := refEncode(t, summarizeReport(rep))
		if !bytes.Equal(got, want) {
			t.Fatalf("appendSummary differs from the reference encoder\ngot:  %q\nwant: %q", got, want)
		}
	})
}

// BenchmarkAppendString times the string encoder on the four case
// studies' code listings, the bulk of every /v1/ask body.
func BenchmarkAppendString(b *testing.B) {
	sys := twinSystem(b, fixtureEnv(b))
	var listings []string
	size := 0
	for _, q := range caseStudies {
		rep, err := sys.Ask(ctx, q, core.AskWithoutCuration())
		if err != nil {
			b.Fatal(err)
		}
		listings = append(listings, rep.Solution.Code)
		size += len(rep.Solution.Code)
	}
	buf := make([]byte, 0, 2*size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, l := range listings {
			buf = appendString(buf, l)
		}
	}
}

// statusWriter is a ResponseWriter that keeps only the status and one
// header map, so an alloc count through it reads the handler's own
// cost and not a recorder's.
type statusWriter struct {
	h    http.Header
	code int
}

func (w *statusWriter) Header() http.Header { return w.h }

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// replayBody is a request body that can be reset to new bytes.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// servedAsker posts bodies to /v1/ask through Server.ServeHTTP with
// one request, body and writer reused across posts, so what a post
// allocates is what the handler and the System allocate.
type servedAsker struct {
	srv  *Server
	req  *http.Request
	body replayBody
	w    statusWriter
}

// ask posts body and returns the response status.
func (a *servedAsker) ask(body []byte) int {
	a.body.Reset(body)
	a.req.Body = &a.body
	a.req.ContentLength = int64(len(body))
	clear(a.w.h)
	a.w.code = 0
	a.srv.ServeHTTP(&a.w, a.req)
	return a.w.code
}

// missBody appends the n-th plan-miss body to b: a case study under a
// reference number no other body carries, the shape of servebench's
// novel, so each ask misses the plan cache while its steps stay warm.
func missBody(b []byte, n int) []byte {
	b = append(b, `{"query":"`...)
	b = append(b, caseStudies[n%len(caseStudies)]...)
	b = append(b, " (ref "...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, `)","no_curation":true}`...)
}

// newServedAsker asks a one-tenant server on the fixture environment
// each case study once, so every step is cached.
func newServedAsker(t testing.TB) *servedAsker {
	srv, err := NewServer(Config{Env: fixtureEnv(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	a := &servedAsker{srv: srv, w: statusWriter{h: http.Header{}}}
	a.req = httptest.NewRequest(http.MethodPost, "/v1/ask", nil)
	for i, q := range caseStudies {
		body, _ := json.Marshal(map[string]any{"query": q, "no_curation": true})
		if code := a.ask(body); code != http.StatusOK {
			t.Fatalf("CS%d: status %d", i+1, code)
		}
	}
	return a
}

// BenchmarkServedAsk times POST /v1/ask through Server.ServeHTTP with
// a ResponseWriter that keeps only the status, so -benchmem reads the
// handler's own cost: request decoding, admission, the run and the
// summary, without a transport or a client. warm asks CS1 again (a
// plan-cache hit and a memoized replay); plan-miss asks a text never
// asked before each time, over warm steps.
func BenchmarkServedAsk(b *testing.B) {
	a := newServedAsker(b)
	warm, _ := json.Marshal(map[string]any{"query": queryCS1, "no_curation": true})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if code := a.ask(warm); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
	})
	n := 0 // across the rounds, so no text repeats
	var body []byte
	b.Run("plan-miss", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			body = missBody(body[:0], n)
			n++
			if code := a.ask(body); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
	})
}

// TestMemoizedSummaryAllocs pins the memoized encoding at zero
// allocations: query, promotions and elapsed time are appended into
// the caller's buffer around the stored bytes.
func TestMemoizedSummaryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	sys := twinSystem(t, fixtureEnv(t))
	for i, q := range caseStudies {
		var rep *core.Report
		for r := 0; r < 3; r++ {
			var err error
			if rep, err = sys.Ask(ctx, q, core.AskWithoutCuration()); err != nil {
				t.Fatal(err)
			}
		}
		if core.ReplayMemo(rep) == nil {
			t.Fatalf("CS%d: a fully cached replay got no memo", i+1)
		}
		buf := appendSummary(nil, rep) // fills the memo
		buf = make([]byte, 0, 2*len(buf))
		allocs := testing.AllocsPerRun(100, func() { buf = appendSummary(buf[:0], rep) })
		if allocs != 0 {
			t.Errorf("CS%d: memoized appendSummary allocates %.1f/op, want 0", i+1, allocs)
		}
	}
}

// TestWarmServedAskAllocs is the alloc ceiling of the /v1/ask
// handler. It posts through ServeHTTP with a servedAsker, so it counts
// what the handler and the System allocate and not a recorder or a
// request builder: a warm ask of each case study (request decoding,
// scheduler admission, a fully cached replay and the memoized summary)
// measures 6, and a plan-miss ask of a text never asked before, over
// warm steps (the shape of servebench's novel), about 100 averaged
// over the four case studies. Each ceiling carries about 2x headroom.
func TestWarmServedAskAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is unreliable under -short (race) runs")
	}
	a := newServedAsker(t)
	for i, q := range caseStudies {
		body, _ := json.Marshal(map[string]any{"query": q, "no_curation": true})
		serve := func() {
			if code := a.ask(body); code != http.StatusOK {
				t.Fatalf("CS%d: status %d", i+1, code)
			}
		}
		for r := 0; r < 2; r++ { // memoize the replay and its summary
			serve()
		}
		allocs := testing.AllocsPerRun(50, serve)
		t.Logf("CS%d: warm POST /v1/ask %.1f allocs/op", i+1, allocs)
		const ceiling = 12
		if allocs > ceiling {
			t.Errorf("CS%d: warm POST /v1/ask allocates %.1f/op, budget %d", i+1, allocs, ceiling)
		}
	}
	n := 0
	var body []byte
	allocs := testing.AllocsPerRun(100, func() {
		body = missBody(body[:0], n)
		n++
		if code := a.ask(body); code != http.StatusOK {
			t.Fatalf("%s: status %d", body, code)
		}
	})
	t.Logf("plan-miss POST /v1/ask %.1f allocs/op", allocs)
	const missCeiling = 200
	if allocs > missCeiling {
		t.Errorf("plan-miss POST /v1/ask allocates %.1f/op, budget %d", allocs, missCeiling)
	}
}

// TestReplayAfterInjectionServesCurrentEpoch asks each case study
// three times over HTTP, injects a new scenario, and asks twice more:
// every answer's outputs must equal an uncached run on the tenant at
// the epoch it was served in, so no replay serves the previous epoch's
// memoized bytes.
func TestReplayAfterInjectionServesCurrentEpoch(t *testing.T) {
	srv, ts := startServer(t, Config{Env: fixtureEnv(t)})
	sys := srv.Tenant("default").System()
	served := map[string][2]json.RawMessage{}
	ask := func(epoch, i int, q string) {
		t.Helper()
		var got struct {
			Outputs map[string]json.RawMessage `json:"outputs"`
		}
		resp := postJSON(t, ts.URL+"/v1/ask", map[string]any{"query": q, "no_curation": true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("CS%d: status %d: %s", i+1, resp.StatusCode, readBody(t, resp))
		}
		decodeBody(t, resp, &got)
		rep, err := sys.Ask(ctx, q, core.AskNoCache(), core.AskWithoutCuration())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Outputs) != len(rep.Result.Outputs) {
			t.Errorf("CS%d epoch %d: %d outputs served, %d computed", i+1, epoch, len(got.Outputs), len(rep.Result.Outputs))
		}
		for name, v := range rep.Result.Outputs {
			want := jsonValue(v)
			if !bytes.Equal(got.Outputs[name], want) {
				t.Errorf("CS%d epoch %d: output %q served %.120s, uncached run computes %.120s", i+1, epoch, name, got.Outputs[name], want)
			}
			pair := served[fmt.Sprint(i, name)]
			pair[epoch] = want
			served[fmt.Sprint(i, name)] = pair
		}
	}
	for i, q := range caseStudies {
		for r := 0; r < 3; r++ {
			ask(0, i, q)
		}
	}
	// A new seed on another cable, so the forensic verdict must move.
	resp := postJSON(t, ts.URL+"/v1/admin/scenario", map[string]any{"seed": 6, "cable": "aae-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	resp.Body.Close()
	for i, q := range caseStudies {
		for r := 0; r < 2; r++ {
			ask(1, i, q)
		}
	}
	changed := 0
	for _, pair := range served {
		if !bytes.Equal(pair[0], pair[1]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no output changed with the scenario, so no stale answer could show")
	}
}
