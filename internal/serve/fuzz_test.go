package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

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
// option, plus bodies at the edges of decodeAsk's fast path and
// malformed bodies.
func addAskSeeds(f *testing.F) {
	for _, q := range caseStudies {
		quoted, _ := json.Marshal(q)
		for _, extra := range []string{"", `,"no_curation":true`, `,"no_cache":true`, `,"full":true`, `,"timeout_ms":1`} {
			f.Add([]byte(`{"query":` + string(quoted) + extra + `}`))
		}
	}
	// json.Marshal writes PEACE's & as \u0026; Amitié's é stays raw.
	peace, _ := json.Marshal(map[string]any{
		"query":       "Identify the impact at a country level due to PEACE (Pakistan & East Africa Connecting Europe) cable failure",
		"no_curation": true,
	})
	f.Add(peace)
	f.Add([]byte(`{"query":"Identify the impact at a country level due to Amitié cable failure","no_curation":true}`))
	f.Add([]byte(`{"query":"Identify the impact\tat a \"country\" level due to SeaMeWe\u002d5 cable failure \/ \\ \u00e9\n"}`))
	cs1, _ := json.Marshal(queryCS1)
	for _, body := range []string{
		`{"Query":` + string(cs1) + `,"NO_CURATION":true}`,
		`{"query":"x","query":` + string(cs1) + `,"no_curation":false,"no_curation":true}`,
		`{"query":` + string(cs1) + `,"no_cache":null}`,
		`{"query":null}`,
		`{"query":` + string(cs1) + `,"timeout_ms":1.5}`,
		`{"query":` + string(cs1) + `,"parallelism":1e2}`,
		`{"query":` + string(cs1) + `,"parallelism":-3,"timeout_ms":0}`,
		`{"query":` + string(cs1) + `,"no_curation":true} trailing`,
		`{"query":` + string(cs1) + `}{"query":"second"}`,
		"{\"qu\x01ery\":\"q\"}",
		`{"query":"Identify \u00zz impact"}`,
		`{"query":"Identify \ud800 impact"}`,
		`{"query":"Identify \ud83d\ude00 impact"}`,
		` { "query" : ` + string(cs1) + ` , "full" : false } `,
		`{}`, `[]`, `"query"`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"query":"Identify the impact at a country`))
	f.Add([]byte(`{"query":42}`))
	f.Add([]byte("{\"query\":\"\xff\xfe impact\"}"))
}

// refDecodeAsk is decodeAsk before the fast path: one json.Decoder
// over the bounded body. FuzzDecodeAsk holds decodeAsk to it.
func refDecodeAsk(w http.ResponseWriter, r *http.Request) (askRequest, bool) {
	var req askRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return req, false
	}
	if strings.TrimSpace(req.Query) == "" {
		httpError(w, http.StatusBadRequest, "query required")
		return req, false
	}
	return req, true
}

// loggedBody is a request body that keeps a digest of every Read it
// serves: the size asked for, the bytes returned and the error.
type loggedBody struct {
	r      io.Reader
	reads  int
	digest uint64
}

func (l *loggedBody) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	l.reads++
	l.mix(uint64(len(p)))
	l.mix(uint64(n))
	if err != nil {
		for _, c := range []byte(err.Error()) {
			l.mix(uint64(c))
		}
	}
	return n, err
}

func (l *loggedBody) mix(v uint64) {
	l.digest = (l.digest ^ v) * 1099511628211 // FNV-1a prime
}

func (*loggedBody) Close() error { return nil }

// FuzzDecodeAsk holds the fast path to encoding/json on arbitrary
// bodies. Where scanAsk accepts a body's first 1 MiB, its request is exactly the one
// json.NewDecoder(http.MaxBytesReader(…, 1<<20)) decodes without
// error; where it reads on, json.Decoder reaches the end of the body
// without an error too. And with the body read whole, a byte at a
// time, in halves, or with its last bytes and EOF together, decodeAsk
// answers with refDecodeAsk's status, headers and body, and the body
// sees the same reads (sizes asked, bytes returned, errors), so the
// 1 MiB bound is hit and the rest left unread alike.
func FuzzDecodeAsk(f *testing.F) {
	addAskSeeds(f)
	f.Add(append(append([]byte(`{"query":"`), bytes.Repeat([]byte("a"), 1<<20)...), `"}`...))
	f.Add(append([]byte(`{"query":"q"}`), bytes.Repeat([]byte(" "), 1<<20)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want askRequest
		bounded := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), 1<<20)
		wantErr := json.NewDecoder(bounded).Decode(&want)
		head := body[:min(len(body), 1<<20)]
		switch got, st := scanAsk(head); {
		case st == scanDone && (wantErr != nil || got != want):
			t.Fatalf("fast path decoded %+v; encoding/json: %+v, %v", got, want, wantErr)
		case st == scanMore:
			var req askRequest
			if err := json.NewDecoder(bytes.NewReader(head)).Decode(&req); err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("fast path reads on; json.Decoder stops with %v", err)
			}
		}
		chunkings := map[string]func(io.Reader) io.Reader{
			"whole":     func(r io.Reader) io.Reader { return r },
			"one byte":  iotest.OneByteReader,
			"halves":    iotest.HalfReader,
			"EOF early": iotest.DataErrReader,
		}
		for name, chunk := range chunkings {
			gotBody := &loggedBody{r: chunk(bytes.NewReader(body))}
			wantBody := &loggedBody{r: chunk(bytes.NewReader(body))}
			gotRec, wantRec := httptest.NewRecorder(), httptest.NewRecorder()
			got, gotOK := decodeAsk(gotRec, httptest.NewRequest(http.MethodPost, "/v1/ask", gotBody))
			want, wantOK := refDecodeAsk(wantRec, httptest.NewRequest(http.MethodPost, "/v1/ask", wantBody))
			if gotOK != wantOK || gotOK && got != want {
				t.Fatalf("%s: decodeAsk %+v, %v; reference %+v, %v", name, got, gotOK, want, wantOK)
			}
			if gotRec.Code != wantRec.Code || !bytes.Equal(gotRec.Body.Bytes(), wantRec.Body.Bytes()) ||
				!reflect.DeepEqual(gotRec.Header(), wantRec.Header()) {
				t.Fatalf("%s: decodeAsk answered %d %v %q; reference %d %v %q", name, gotRec.Code, gotRec.Header(),
					gotRec.Body.Bytes(), wantRec.Code, wantRec.Header(), wantRec.Body.Bytes())
			}
			if gotBody.reads != wantBody.reads || gotBody.digest != wantBody.digest {
				t.Fatalf("%s: decodeAsk read the body %d times (digest %x); reference %d times (digest %x)",
					name, gotBody.reads, gotBody.digest, wantBody.reads, wantBody.digest)
			}
		}
	})
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
