package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// FuzzAskBody sends arbitrary POST /v1/ask bodies through the server
// on the small world with scenario 5. Every response is a 200, 400 or
// 422 whose body is valid JSON served as application/json, and a
// summary body (a 200 without "full", or a 422) carries its exact
// Content-Length.
func FuzzAskBody(f *testing.F) {
	srv, err := NewServer(Config{Env: fixtureEnv(f)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	for _, q := range caseStudies {
		quoted, _ := json.Marshal(q)
		for _, extra := range []string{"", `,"no_curation":true`, `,"no_cache":true`, `,"full":true`, `,"timeout_ms":1`} {
			f.Add([]byte(`{"query":` + string(quoted) + extra + `}`))
		}
	}
	f.Add([]byte(`{"query":"Identify the impact at a country`))
	f.Add([]byte(`{"query":42}`))
	f.Add([]byte("{\"query\":\"\xff\xfe impact\"}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ask", bytes.NewReader(body)))
		got := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d: %s", rec.Code, got)
		}
		if !json.Valid(got) {
			t.Fatalf("status %d with invalid JSON body %q", rec.Code, got)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		var req askRequest
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		summary := rec.Code == http.StatusUnprocessableEntity || rec.Code == http.StatusOK && !req.Full
		if cl := rec.Header().Get("Content-Length"); summary && cl != strconv.Itoa(len(got)) {
			t.Fatalf("status %d: Content-Length %q for a %d-byte body", rec.Code, cl, len(got))
		}
	})
}
