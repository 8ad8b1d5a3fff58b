package serve

// Continuous monitoring over the wire: subscription lifecycle, SSE
// delta streams (replay-from-start, disconnect semantics), the admin
// scenario endpoint that drives re-execution, per-tenant isolation of
// epoch bumps, and shutdown with standing queries open.

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// queryForensic is scenario-sensitive: it fails on a scenario-less
// world and flips to a verdict once a cable failure is injected —
// exactly the transition a standing query exists to catch.
const queryForensic = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."

func subscribe(t testing.TB, base, query string, headers ...string) subscriptionJSON {
	t.Helper()
	resp := postJSON(t, base+"/v1/subscriptions", map[string]any{"query": query}, headers...)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe = %d", resp.StatusCode)
	}
	var sub subscriptionJSON
	decodeBody(t, resp, &sub)
	return sub
}

// awaitRevision polls the tenant's subscription until it reaches at
// least want re-executions.
func awaitRevision(t testing.TB, tn *Tenant, id uint64, want int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if sub := tn.System().Subscription(id); sub != nil && sub.Revision() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("subscription %d never reached revision %d", id, want)
}

func TestSubscriptionScenarioInjectionOverSSE(t *testing.T) {
	srv, ts := startServer(t, Config{Env: testEnv(t)})
	tn := srv.Tenant("default")

	sub := subscribe(t, ts.URL, queryForensic)
	if sub.ID == 0 || sub.Query != queryForensic {
		t.Fatalf("summary = %+v", sub)
	}
	// The baseline ran synchronously against a scenario-less world, so
	// the standing query starts in a (legitimate) failed state.
	if sub.Error == "" {
		t.Fatal("scenario-less forensic baseline reported no error")
	}

	var list struct {
		Subscriptions []subscriptionJSON `json:"subscriptions"`
	}
	resp, err := http.Get(ts.URL + "/v1/subscriptions")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list)
	if len(list.Subscriptions) != 1 || list.Subscriptions[0].ID != sub.ID {
		t.Fatalf("subscription list = %+v", list.Subscriptions)
	}

	// Open the event stream, then inject a scenario. The stream must
	// replay from subscription_started and then deliver the
	// result_changed delta the epoch bump causes.
	stream, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/events?detach=1", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	resp = postJSON(t, ts.URL+"/v1/admin/scenario", map[string]any{"seed": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject = %d", resp.StatusCode)
	}
	var inj struct {
		Epoch float64 `json:"epoch"`
	}
	decodeBody(t, resp, &inj)
	if inj.Epoch != 1 {
		t.Errorf("epoch after first injection = %v, want 1", inj.Epoch)
	}

	// The delta comes first, then the anomalies it surfaced.
	frames := readSSE(t, stream, func(f sseFrame) bool { return f.Event == "anomaly_appeared" })
	if frames[0].Event != "subscription_started" {
		t.Errorf("first frame = %s, want subscription_started (replay from the beginning)", frames[0].Event)
	}
	if frames[0].Data["error"] == "" {
		t.Errorf("started frame carries no baseline error: %v", frames[0].Data)
	}
	var changed sseFrame
	for _, f := range frames {
		if f.Event == "result_changed" {
			changed = f
		}
	}
	if changed.Event == "" {
		t.Fatal("stream never delivered result_changed")
	}
	if changed.Data["cause"] != "environment" {
		t.Errorf("result_changed cause = %v, want environment", changed.Data["cause"])
	}
	delta, ok := changed.Data["delta"].(map[string]any)
	if !ok {
		t.Fatalf("result_changed delta = %v", changed.Data["delta"])
	}
	if eb, _ := delta["err_before"].(string); eb == "" {
		t.Errorf("delta err_before empty; the baseline failed")
	}
	if added, _ := delta["added"].([]any); len(added) == 0 {
		t.Errorf("delta added no outputs: %v", delta)
	}

	// The resource now reports a healthy revision-1 state.
	awaitRevision(t, tn, sub.ID, 1)
	resp, err = http.Get(fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got subscriptionJSON
	decodeBody(t, resp, &got)
	if got.Revision < 1 || got.Error != "" {
		t.Errorf("subscription resource = %+v", got)
	}

	// A late subscriber replays the identical history from the start.
	replay, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/events?detach=1", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Body.Close()
	again := readSSE(t, replay, func(f sseFrame) bool { return f.Event == "anomaly_appeared" })
	if len(again) != len(frames) {
		t.Errorf("replay saw %d frames, live saw %d", len(again), len(frames))
	}

	// DELETE closes the standing query: streams end with the terminal
	// frame and the resource disappears.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, sub.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	final, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/events", ts.URL, sub.ID))
	if err == nil {
		final.Body.Close()
	}
	if err != nil || final.StatusCode != http.StatusNotFound {
		t.Errorf("events after delete: status %v err %v, want 404", final.StatusCode, err)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete = %d, want 404", resp.StatusCode)
	}
}

func TestSubscriptionDisconnectSemantics(t *testing.T) {
	srv, ts := startServer(t, Config{Env: testEnv(t)})
	tn := srv.Tenant("default")

	// An attached consumer's disconnect closes the standing query: a
	// dropped monitor must stop burning re-executions.
	sub := subscribe(t, ts.URL, queryCS1)
	cctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(cctx,
		http.MethodGet, fmt.Sprintf("%s/v1/subscriptions/%d/events", ts.URL, sub.ID), nil)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readSSE(t, stream, func(f sseFrame) bool { return f.Event == "subscription_started" })
	cancel()
	stream.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	for tn.System().Subscription(sub.ID) != nil {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never closed the attached subscription")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A detached consumer (?detach=1) may come and go freely.
	sub2 := subscribe(t, ts.URL, queryCS1)
	dctx, dcancel := context.WithCancel(context.Background())
	req, _ = http.NewRequestWithContext(dctx,
		http.MethodGet, fmt.Sprintf("%s/v1/subscriptions/%d/events?detach=1", ts.URL, sub2.ID), nil)
	stream, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readSSE(t, stream, func(f sseFrame) bool { return f.Event == "subscription_started" })
	dcancel()
	stream.Body.Close()
	// Give the handler's disconnect path time to (wrongly) close it.
	time.Sleep(50 * time.Millisecond)
	live := tn.System().Subscription(sub2.ID)
	if live == nil {
		t.Fatal("detached subscription closed by its consumer's disconnect")
	}
	live.Close()
}

func TestScenarioInjectionIsPerTenant(t *testing.T) {
	srv, ts := startServer(t, Config{
		Env: testEnv(t),
		Tenants: []TenantConfig{
			{Name: "alpha"},
			{Name: "beta"},
		},
	})

	subA := subscribe(t, ts.URL, queryForensic, tenantHeader, "alpha")
	subB := subscribe(t, ts.URL, queryForensic, tenantHeader, "beta")

	// Alpha injects a scenario; only alpha's standing query re-executes.
	resp := postJSON(t, ts.URL+"/v1/admin/scenario", map[string]any{"seed": 5},
		tenantHeader, "alpha")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject = %d", resp.StatusCode)
	}
	resp.Body.Close()
	awaitRevision(t, srv.Tenant("alpha"), subA.ID, 1)

	bSys := srv.Tenant("beta").System()
	if ep := bSys.Environment().Epoch(); ep != 0 {
		t.Errorf("beta environment epoch = %d after alpha's injection, want 0", ep)
	}
	if rev := bSys.Subscription(subB.ID).Revision(); rev != 0 {
		t.Errorf("beta subscription revision = %d after alpha's injection, want 0", rev)
	}
	if _, err := bSys.Subscription(subB.ID).Current(); err == nil {
		t.Error("beta's forensic query succeeded without a scenario")
	}

	// Subscription IDs live in per-tenant namespaces: alpha's second
	// standing query gets an id that simply does not exist for beta.
	subA2 := subscribe(t, ts.URL, queryCS1, tenantHeader, "alpha")
	if subA2.ID == subB.ID {
		t.Fatalf("test needs an id unique to alpha, got %d for both", subA2.ID)
	}
	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, subA2.ID), nil)
	req.Header.Set(tenantHeader, "beta")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant subscription get = %d, want 404", resp.StatusCode)
	}
	var bList struct {
		Subscriptions []subscriptionJSON `json:"subscriptions"`
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/subscriptions", nil)
	req.Header.Set(tenantHeader, "beta")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &bList)
	if len(bList.Subscriptions) != 1 || bList.Subscriptions[0].ID != subB.ID {
		t.Errorf("beta's subscription list = %+v", bList.Subscriptions)
	}
}

func TestShutdownClosesOpenSubscriptions(t *testing.T) {
	srv, ts := startServer(t, Config{Env: testEnv(t)})
	tn := srv.Tenant("default")

	sub := subscribe(t, ts.URL, queryCS1)
	stream, err := http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/events?detach=1", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown with open subscription: %v", err)
	}
	// The stream terminates with the subscription_closed frame and the
	// table is emptied.
	frames := readSSE(t, stream, func(f sseFrame) bool { return f.Event == "subscription_closed" })
	last := frames[len(frames)-1]
	if last.Event != "subscription_closed" || last.Data["reason"] != "system closed" {
		t.Errorf("terminal frame = %s %v", last.Event, last.Data)
	}
	if subs := tn.System().Subscriptions(); len(subs) != 0 {
		t.Errorf("%d subscriptions survive shutdown", len(subs))
	}

	// New standing queries are refused on the closed tier.
	resp := postJSON(t, ts.URL+"/v1/subscriptions", map[string]any{"query": queryCS1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("subscribe after shutdown = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestScenarioDaysCeiling: an injection's cost grows with its window,
// so day counts above maxScenarioDays are refused with 400 before any
// injection runs, while the ceiling itself is accepted.
func TestScenarioDaysCeiling(t *testing.T) {
	srv, ts := startServer(t, Config{Env: testEnv(t)})
	env := srv.Tenant("default").System().Environment()
	for _, body := range []map[string]any{
		{"window_days": maxScenarioDays + 1},
		{"days_before_now": maxScenarioDays + 1},
		{"days_before_now": 3, "window_days": maxScenarioDays + 1, "seed": 5},
	} {
		resp := postJSON(t, ts.URL+"/v1/admin/scenario", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v: status %d, want 400", body, resp.StatusCode)
		}
	}
	if ep := env.Epoch(); ep != 0 {
		t.Fatalf("refused requests injected: epoch %d", ep)
	}
	resp := postJSON(t, ts.URL+"/v1/admin/scenario", map[string]any{
		"days_before_now": maxScenarioDays, "window_days": maxScenarioDays,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || env.Epoch() != 1 {
		t.Fatalf("ceiling request: status %d, epoch %d; want 200, 1", resp.StatusCode, env.Epoch())
	}
}
