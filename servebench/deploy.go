package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/netsim"
	"arachnet/internal/serve"
)

// The fixture every workload runs over: the small world and scenario
// seed the repository's tests use.
const (
	worldSeed    = 7
	scenarioSeed = 5
)

// opTimeout bounds every timed operation: one HTTP ask, or one
// monitor round from injection to the last subscription delivery.
const opTimeout = 10 * time.Second

// The paper's four case-study queries, verbatim.
var caseStudies = []string{
	"Identify the impact at a country level due to SeaMeWe-5 cable failure",
	"Identify the impact of severe earthquakes and hurricanes globally assuming a 10% infra failure probability",
	"Analyze the cascading effects of submarine cable failures between Europe and Asia",
	"A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable.",
}

// newFixtureEnv generates the fixture world and injects its scenario.
func newFixtureEnv() (*core.Environment, error) {
	env, err := core.NewEnvironment(netsim.SmallConfig(worldSeed))
	if err != nil {
		return nil, err
	}
	if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: scenarioSeed}); err != nil {
		return nil, fmt.Errorf("inject fixture scenario: %w", err)
	}
	return env, nil
}

// deployment is the served system: a serve.Server with one open tenant
// behind a real loopback listener, default cache bounds, GOMAXPROCS
// scheduler workers and no fleet, plus the in-process HTTP client the
// closed-loop clients share.
type deployment struct {
	srv    *serve.Server
	sys    *core.System // the tenant's System
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func newDeployment() (*deployment, error) {
	env, err := newFixtureEnv()
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Env: env})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &deployment{
		srv:    srv,
		sys:    srv.Tenant("default").System(),
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: maxClients,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener, drains the serving tier and waits for the
// serve goroutine.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	errHTTP := d.hs.Shutdown(ctx)
	errSrv := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errHTTP = errors.Join(errHTTP, err)
	}
	d.client.CloseIdleConnections()
	return errors.Join(errHTTP, errSrv)
}

// askBody encodes a POST /v1/ask request.
func askBody(query string, curate bool) []byte {
	body, _ := json.Marshal(struct {
		Query      string `json:"query"`
		NoCuration bool   `json:"no_curation,omitempty"`
	}{query, !curate}) // a struct of two strings and a bool always encodes
	return body
}

// post sends one ask and reads the whole response into buf. The
// latency runs from send to the last response byte.
func (d *deployment) post(body []byte, buf *bytes.Buffer) (time.Duration, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/ask", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf.Reset()
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return time.Since(start), 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return lat, resp.StatusCode, err
}
