package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"arachnet/internal/core"
)

// fuzzServer is a one-tenant server on env, shut down when f ends.
func fuzzServer(f *testing.F, env *core.Environment) *Server {
	srv, err := NewServer(Config{Env: env})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv
}

// serveFuzz sends one request through srv and checks the response
// every route promises: a status in want, a valid JSON body and an
// application/json content type.
func serveFuzz(t *testing.T, srv *Server, method, target string, body []byte, want ...int) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	got := rec.Body.Bytes()
	if !slices.Contains(want, rec.Code) {
		t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, got)
	}
	if !json.Valid(got) {
		t.Fatalf("%s %s: status %d with invalid JSON body %q", method, target, rec.Code, got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type %q", method, target, ct)
	}
	return rec
}

// createdID reads the "id" of the job or subscription a 2xx body
// describes.
func createdID(t *testing.T, rec *httptest.ResponseRecorder) uint64 {
	t.Helper()
	var created struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || created.ID == 0 {
		t.Fatalf("status %d body carries no id: %s", rec.Code, rec.Body.Bytes())
	}
	return created.ID
}

// addAskSeeds seeds f with the case-study queries under each per-call
// option, plus malformed bodies.
func addAskSeeds(f *testing.F) {
	for _, q := range caseStudies {
		quoted, _ := json.Marshal(q)
		for _, extra := range []string{"", `,"no_curation":true`, `,"no_cache":true`, `,"full":true`, `,"timeout_ms":1`} {
			f.Add([]byte(`{"query":` + string(quoted) + extra + `}`))
		}
	}
	f.Add([]byte(`{"query":"Identify the impact at a country`))
	f.Add([]byte(`{"query":42}`))
	f.Add([]byte("{\"query\":\"\xff\xfe impact\"}"))
}

// FuzzAskBody sends arbitrary POST /v1/ask bodies through the server
// on the small world with scenario 5. Every response is a 200, 400 or
// 422 whose body is valid JSON served as application/json, and a
// summary body (a 200 without "full", or a 422) carries its exact
// Content-Length.
func FuzzAskBody(f *testing.F) {
	srv := fuzzServer(f, fixtureEnv(f))
	addAskSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveFuzz(t, srv, http.MethodPost, "/v1/ask", body,
			http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity)
		got := rec.Body.Bytes()
		var req askRequest
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		summary := rec.Code == http.StatusUnprocessableEntity || rec.Code == http.StatusOK && !req.Full
		if cl := rec.Header().Get("Content-Length"); summary && cl != strconv.Itoa(len(got)) {
			t.Fatalf("status %d: Content-Length %q for a %d-byte body", rec.Code, cl, len(got))
		}
	})
}

// FuzzSubmitBody sends arbitrary POST /v1/jobs bodies on the small
// world with scenario 5. Every response is a 202, 400 or 429 whose
// body is valid JSON served as application/json; each accepted job is
// cancelled through DELETE /v1/jobs/{id} and waited for.
func FuzzSubmitBody(f *testing.F) {
	srv := fuzzServer(f, fixtureEnv(f))
	sys := srv.Tenant("default").System()
	addAskSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveFuzz(t, srv, http.MethodPost, "/v1/jobs", body,
			http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests)
		if rec.Code != http.StatusAccepted {
			return
		}
		id := createdID(t, rec)
		serveFuzz(t, srv, http.MethodDelete, "/v1/jobs/"+strconv.FormatUint(id, 10), nil, http.StatusOK)
		for _, j := range sys.Jobs() {
			if j.ID() == id {
				_, _ = j.Wait(context.Background()) // a cancelled job's error
			}
		}
	})
}

// FuzzSubscribeBody sends arbitrary POST /v1/subscriptions bodies on
// the small world with scenario 5. Every response is a 201 or 400 whose
// body is valid JSON served as application/json; each subscription is
// closed through DELETE /v1/subscriptions/{id}.
func FuzzSubscribeBody(f *testing.F) {
	srv := fuzzServer(f, fixtureEnv(f))
	addAskSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveFuzz(t, srv, http.MethodPost, "/v1/subscriptions", body,
			http.StatusCreated, http.StatusBadRequest)
		if rec.Code != http.StatusCreated {
			return
		}
		id := strconv.FormatUint(createdID(t, rec), 10)
		serveFuzz(t, srv, http.MethodDelete, "/v1/subscriptions/"+id, nil, http.StatusOK)
	})
}

// FuzzScenarioBody sends arbitrary POST /v1/admin/scenario bodies on
// the small world. Every response is a 200, 400 or 422 whose body is
// valid JSON served as application/json, and a body asking for more
// than maxScenarioDays days is refused with 400.
func FuzzScenarioBody(f *testing.F) {
	srv := fuzzServer(f, testEnv(f))
	for _, body := range []string{
		``, `{}`, `{"seed":5}`, `{"seed":6,"cable":"aae-1"}`,
		`{"days_before_now":3,"window_days":7,"probe_pairs":6}`,
		`{"window_days":30}`, `{"window_days":31}`, `{"days_before_now":31}`,
		`{"days_before_now":-4,"window_days":-1}`, `{"probe_pairs":1000}`,
		`{"cable":"no-such-cable"}`, `{"seed":-1}`, `{"seed":5`, `[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveFuzz(t, srv, http.MethodPost, "/v1/admin/scenario", body,
			http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity)
		var req scenarioRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil &&
			(req.DaysBeforeNow > maxScenarioDays || req.WindowDays > maxScenarioDays) &&
			rec.Code != http.StatusBadRequest {
			t.Fatalf("%d days before now, %d window days: status %d", req.DaysBeforeNow, req.WindowDays, rec.Code)
		}
	})
}
