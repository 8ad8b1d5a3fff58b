package fleetwire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"arachnet/internal/core"
	"arachnet/internal/netsim"
)

// testServer is a one-shard worker over the small world (seed 7) with
// the scenario (seed 5) injected, so every builtin capability can run.
// Its step cache is off: each request executes.
func testServer(tb testing.TB) *Server {
	tb.Helper()
	env, err := core.NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		tb.Fatal(err)
	}
	if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: 5}); err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(env, nil, 1, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

func execute(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body)))
	return rec
}

// nullPointerBodies send a JSON null under a pointer tag to capabilities
// that dereference it.
var nullPointerBodies = []string{
	`{"cap":"report.render","in":{"report":{"type":"*xaminer.ImpactReport","value":null}}}`,
	`{"cap":"synthesis.timeline","in":{"report":{"type":"*xaminer.ImpactReport","value":null},` +
		`"cascade":{"type":"core.CascadeBundle","value":{}},"bursts":{"type":"[]bgp.Burst","value":[]}}}`,
	`{"cap":"traceroute.detect_latency_anomaly","in":{"archive":{"type":"*traceroute.Archive","value":null}}}`,
}

// TestExecuteRejectsNullPointers: a null pointer input is a bad input,
// refused before the capability runs, not a capability panic.
func TestExecuteRejectsNullPointers(t *testing.T) {
	srv := testServer(t)
	for _, body := range nullPointerBodies {
		rec := execute(srv, []byte(body))
		var fail struct {
			Error *wireError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil || fail.Error == nil ||
			rec.Code != http.StatusBadRequest || fail.Error.Code != CodeBadInput {
			t.Errorf("%s:\nstatus %d body %s, want 400 %s", body, rec.Code, rec.Body.Bytes(), CodeBadInput)
		}
	}
}

// FuzzExecuteBody sends arbitrary bodies to POST /v1/execute: every
// answer must be a typed wire error or an output the port-value table
// decodes, and no capability may panic, let alone reach the handler's
// recover backstop.
func FuzzExecuteBody(f *testing.F) {
	srv := testServer(f)
	links := `{"links":{"type":"[]netsim.LinkID","value":[0,1,2,3,5,8,13,21,34,55]}}`
	ips := execute(srv, []byte(`{"cap":"nautilus.extract_ips","in":`+links+`}`))
	var ipsOut executeResponse
	if err := json.Unmarshal(ips.Body.Bytes(), &ipsOut); err != nil || ips.Code != http.StatusOK {
		f.Fatalf("extract_ips seed: status %d body %s", ips.Code, ips.Body.Bytes())
	}
	ipsIn, _ := json.Marshal(ipsOut.Out)
	for _, body := range append([]string{
		// One request per capability with a scatter spec, and one for a
		// capability that reads the scenario.
		`{"cap":"nautilus.extract_ips","key":"k|0","in":` + links + `}`,
		`{"cap":"xaminer.impact_from_links","in":` + links + `}`,
		`{"cap":"geo.locate_ips","in":` + string(ipsIn) + `}`,
		`{"cap":"traceroute.archive_window","in":{}}`,
		`{"cap":"nautilus.extract_ips","in":{"links":{"type":"no.such.Type","value":[1]}}}`,
		`{"cap":"no.such.capability","in":{}}`,
		`{"cap":"nautilus.extract_ips","in":{"links":{"type":"[]netsim.Li`,
	}, nullPointerBodies...) {
		f.Add([]byte(body))
	}
	codes := map[string]bool{
		CodeBadRequest: true, CodeUnknownCapability: true, CodeBadInput: true,
		CodeExecutionFailed: true, CodeUnencodableOutput: true, CodeHandshakeMismatch: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := execute(srv, body)
		got := rec.Body.Bytes()
		if !json.Valid(got) {
			t.Fatalf("status %d with invalid JSON body %q", rec.Code, got)
		}
		switch rec.Code {
		case http.StatusOK:
			var resp executeResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatalf("200 body does not decode: %v: %s", err, got)
			}
			if _, err := core.DecodePortValues(resp.Out); err != nil {
				t.Fatalf("200 output does not decode: %v: %s", err, got)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusInternalServerError:
			var fail struct {
				Error *wireError `json:"error"`
			}
			if err := json.Unmarshal(got, &fail); err != nil || fail.Error == nil || !codes[fail.Error.Code] {
				t.Fatalf("status %d without a wire error code: %s", rec.Code, got)
			}
			// The handler's recover backstop, or fleet.Call containing a
			// capability panic. Other messages may echo input, so only
			// these prefixes count.
			msg := fail.Error.Message
			if fail.Error.Code == CodeExecutionFailed && (strings.HasPrefix(msg, "worker panicked: ") ||
				strings.HasPrefix(msg, "capability ") && strings.Contains(msg, " panicked: ")) {
				t.Fatalf("panic: %s", got)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, got)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
	})
}
