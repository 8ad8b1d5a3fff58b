package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestScanAskVerdicts pins which bodies the fast path accepts, which
// it defers to encoding/json, and which it reads on for; every
// accepted body decodes to encoding/json's request, and json.Decoder
// would read on for every body the fast path reads on for.
func TestScanAskVerdicts(t *testing.T) {
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	peace := "Identify the impact at a country level due to PEACE (Pakistan & East Africa Connecting Europe) cable failure"
	accepted := []string{
		`{}`,
		marshal(askRequest{Query: queryCS1}),
		marshal(askRequest{Query: peace, NoCache: true, NoCuration: true, Full: true}),
		marshal(map[string]any{"query": peace, "no_curation": true}),
		`{"query":"Identify the impact at a country level due to Amitié cable failure"}`,
		`{"query":"\"\\\/\b\f\n\r\t\u0000é\uFFFF€ <<>"}`,
		" \t\r\n{ \"query\" : \"q\" ,\n\"full\" : false }",
		`{"query":"first","no_cache":true,"query":"second","no_cache":false}`,
		`{"query":"q"} trailing bytes the decoder never reads`,
		`{"query":"q"}{"query":"second"}`,
	}
	more := []string{
		``, `   `, `{`, `{"query":"q"`, `{"query":"q`, `{"query":"q",`, `{"query" `, `{"query":`,
		`{"no_cu`, `{"full":tru`, `{"query":"\`, `{"query":"\u00`, "{\"query\":\"\xc3",
	}
	deferred := []string{
		`{"query":"q",}`, `{"query":"q" "full":true}`,
		`[]`, `"query"`, `null`, `42`,
		`{"Query":"q"}`, `{"QUERY":"q"}`, `{"qu\u0065ry":"q"}`, `{"unknown":1,"query":"q"}`,
		"{\"qu\x01ery\":\"q\"}", "{\"qu\x01", "{\"qué\":\"q\"}", "{\"qu\xc3", `{"que ry":"q"}`, `{"qu\`,
		`{"query":null}`, `{"full":null}`, `{"full":"true"}`, `{"full":1}`, `{"full":tru}`, `{"full":truex}`,
		`{"query":42}`, `{"query":["q"]}`, `{"query":{"q":1}}`,
		marshal(askRequest{Query: peace, TimeoutMS: 250, Parallelism: 3}),
		`{"query":"q","timeout_ms":0}`, `{"parallelism":1,"query":"q"}`, `{"timeout_ms":1.5}`, `{"timeout_ms":"1"}`,
		"{\"query\":\"\xff\"}", "{\"query\":\"a\x01b\"}", "{\"query\":\"\xed\xa0\x80\"}",
		`{"query":"\ud800"}`, `{"query":"\udfff"}`, `{"query":"\ud83d\ude00"}`, `{"query":"\x"}`, `{"query":"\u00g0"}`,
		`{"query":"\u0g`, `{"query":"\uz`,
		"\ufeff{\"query\":\"q\"}",
	}
	for _, body := range accepted {
		got, st := scanAsk([]byte(body))
		if st != scanDone {
			t.Errorf("%q: verdict %d, want accepted", body, st)
			continue
		}
		var want askRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil || got != want {
			t.Errorf("%q: fast path %+v; encoding/json %+v, %v", body, got, want, err)
		}
	}
	for _, body := range more {
		if _, st := scanAsk([]byte(body)); st != scanMore {
			t.Errorf("%q: verdict %d, want read on", body, st)
		}
		var req askRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Errorf("%q: json.Decoder stops with %v, not at the end of the body", body, err)
		}
	}
	for _, body := range deferred {
		if _, st := scanAsk([]byte(body)); st != scanDefer {
			t.Errorf("%q: verdict %d, want deferred", body, st)
		}
	}
}

// TestConcurrentAskBodies posts bodies the fast path accepts and
// bodies it defers (escaped and raw UTF-8 queries, upper-case keys,
// nulls, malformed JSON) from several goroutines through one Server at
// once; pooled body buffers pass between their request goroutines.
// Every answer must carry the status, error text and outputs of the
// same body's sequential answer.
func TestConcurrentAskBodies(t *testing.T) {
	srv, err := NewServer(Config{Env: fixtureEnv(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(ctx) })
	var bodies []string
	for _, q := range caseStudies {
		plain, _ := json.Marshal(map[string]any{"query": q, "no_curation": true})
		bodies = append(bodies, string(plain), fmt.Sprintf(`{"Query":%q,"NO_CURATION":true}`, q))
	}
	bodies = append(bodies,
		`{"query":"Identify the impact at a country level due to PEACE (Pakistan & East Africa Connecting Europe) cable failure","no_curation":true}`,
		`{"query":"Identify the impact at a country level due to Amitié cable failure","no_curation":true}`,
		`{"query":"Identify the impact at a country level due to SeaMeWe-5 cable failure","no_curation":true,"no_cache":null}`,
		`{"query":"Identify the impact at a country level due to SeaMeWe-5 cable failure","timeout_ms":60000,"no_curation":true}`,
		`{"query":"Identify the impact at a country`,
		`{"query":"\ud800","no_curation":true}`,
		`{"query":"   "}`,
		`[]`,
	)
	answer := func(body string) string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ask", strings.NewReader(body)))
		var got struct {
			Error   string                     `json:"error"`
			Outputs map[string]json.RawMessage `json:"outputs"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			return fmt.Sprintf("%d undecodable: %v", rec.Code, err)
		}
		out, _ := json.Marshal(got.Outputs)
		return fmt.Sprintf("%d %q %s", rec.Code, got.Error, out)
	}
	want := make([]string, len(bodies))
	accepted, rejected := 0, 0
	for i, body := range bodies {
		want[i] = answer(body)
		if strings.HasPrefix(want[i], "200 ") {
			accepted++
		} else if strings.HasPrefix(want[i], "400 ") {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d bodies answered 200 and %d answered 400; the test needs both", accepted, rejected)
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range bodies {
					i := (k + w*3 + r) % len(bodies)
					if got := answer(bodies[i]); got != want[i] {
						t.Errorf("body %q: concurrent answer\n%.300s\nsequential\n%.300s", bodies[i], got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestAskBodyLimitOverHTTP posts bodies over 1 MiB through a real
// http.Server, once decoded by decodeAsk and once by refDecodeAsk:
// bodies whose object runs past the 1 MiB bound, and asks followed by
// more or less than net/http's 256 KiB post-handler read budget. Both
// must answer with the pinned status, keep or close the connection as
// pinned, and send the same body.
func TestAskBodyLimitOverHTTP(t *testing.T) {
	serve := func(decode func(http.ResponseWriter, *http.Request) (askRequest, bool)) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if req, ok := decode(w, r); ok {
				writeJSON(w, http.StatusOK, req)
			}
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	urls := map[string]string{"decodeAsk": serve(decodeAsk), "reference": serve(refDecodeAsk)}
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	long := bytes.Repeat([]byte("a"), 1<<20)
	spaces := func(n int) []byte { return bytes.Repeat([]byte(" "), n) }
	cases := []struct {
		name   string
		body   []byte
		status int
		close  bool
	}{
		{"query past the bound", append(append([]byte(`{"query":"`), long...), `"}`...), http.StatusBadRequest, true},
		{"deferred query past the bound", append(append([]byte(`{"Query":"`), long...), `"}`...), http.StatusBadRequest, true},
		{"ask, then 1 MiB", append([]byte(`{"query":"q","no_curation":true}`), spaces(1<<20)...), http.StatusOK, true},
		{"deferred ask, then 1 MiB", append([]byte(`{"Query":"q"}`), spaces(1<<20)...), http.StatusOK, true},
		{"ask, then 100 KiB", append([]byte(`{"query":"q"}`), spaces(100<<10)...), http.StatusOK, false},
	}
	for _, c := range cases {
		answers := map[string]string{}
		for name, url := range urls {
			resp, err := client.Post(url+"/v1/ask", "application/json", bytes.NewReader(c.body))
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, name, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s, %s: reading the answer: %v", c.name, name, err)
			}
			if resp.StatusCode != c.status || resp.Close != c.close {
				t.Errorf("%s, %s: status %d, connection closed %v; want %d, %v",
					c.name, name, resp.StatusCode, resp.Close, c.status, c.close)
			}
			answers[name] = fmt.Sprintf("%d %q %s", resp.StatusCode, resp.Header.Get("Connection"), body)
		}
		if answers["decodeAsk"] != answers["reference"] {
			t.Errorf("%s: decodeAsk answered %s; reference %s", c.name, answers["decodeAsk"], answers["reference"])
		}
	}
}
