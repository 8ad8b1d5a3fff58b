package arachnet_test

// Remote fleet e2e: the HTTP wire under the fleet transport must be
// invisible in the results. A scattered ask served by two workers on
// loopback must be byte-identical to one served by a fleet of one;
// killing a worker mid-run, or a worker answering a value no
// capability can take, must degrade the ask to running the shard on
// the coordinator (failover counter ticks), never fail it; a worker
// whose handshake disagrees must be rejected at registration while
// asks keep succeeding; and what a worker holds beyond the world must
// never reach an answer.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"arachnet"
	"arachnet/internal/core"
	"arachnet/internal/fleetwire"
	"arachnet/internal/netsim"
)

// startWireWorker boots one worker over its own environment, generated
// from cfg with scenarios injected in order, on a loopback listener
// (see serveWorker).
func startWireWorker(t testing.TB, cfg netsim.Config, shards, index int, scenarios ...core.ScenarioConfig) (*fleetwire.Server, string, func()) {
	t.Helper()
	env, err := core.NewEnvironment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		if err := env.InjectCableFailureScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
	return serveWorker(t, env, shards, index)
}

// cs1RemoteSystem builds a CS1 system whose fleet routes shard i to
// addrs[i] over HTTP.
func cs1RemoteSystem(t testing.TB, seed uint64, addrs []string) *arachnet.System {
	t.Helper()
	sub, err := arachnet.BuiltinRegistry().Subset(arachnet.CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arachnet.New(
		arachnet.WithSmallWorld(seed),
		arachnet.WithRegistry(sub),
		arachnet.WithRemoteFleet(addrs...),
	)
	if err != nil {
		t.Fatal(err)
	}
	if f := sys.Fleet(); f != nil {
		t.Cleanup(f.Close)
	}
	return sys
}

func wireStats(t *testing.T, sys *arachnet.System) arachnet.FleetWireStats {
	t.Helper()
	st := sys.Fleet().Stats()
	if st.Wire == nil {
		t.Fatal("fleet reports no wire stats; transport is not a Pool")
	}
	return *st.Wire
}

// TestRemoteFleetByteIdentical is the acceptance gate for the wire: a
// CS1 ask scattered over two real HTTP workers must produce a report
// byte-identical to the degenerate fleet of one.
func TestRemoteFleetByteIdentical(t *testing.T) {
	const seed, query = 42, "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	remoteSys := cs1FleetSystem(t, seed, 2)
	localSys := cs1FleetSystem(t, seed, 1)

	repRemote, err := remoteSys.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	repLocal, err := localSys.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}

	st := remoteSys.Fleet().Stats()
	if st.Scattered == 0 {
		t.Fatalf("no steps scattered over the remote fleet: %+v", st)
	}
	wire := wireStats(t, remoteSys)
	if wire.Registered != 2 {
		t.Fatalf("want 2 registered workers, got %+v", wire)
	}
	if wire.Requests == 0 {
		t.Fatalf("no requests crossed the wire: %+v", wire)
	}
	if wire.Failovers != 0 || wire.Rejected != 0 {
		t.Fatalf("healthy fleet should not fail over or reject: %+v", wire)
	}
	if wire.BytesSent == 0 || wire.BytesReceived == 0 {
		t.Fatalf("codec byte counters did not move: %+v", wire)
	}

	jr, jl := normalizedReport(t, repRemote), normalizedReport(t, repLocal)
	if string(jr) != string(jl) {
		t.Errorf("fleet-2 and fleet-1 reports differ:\nfleet-2: %s\nfleet-1: %s", jr, jl)
	}
}

// TestRemoteFleetFailover kills one worker between asks: the next ask
// must complete — the dead shard's requests run on the coordinator —
// with the failover counter ticking and outputs still identical to
// inline execution.
func TestRemoteFleetFailover(t *testing.T) {
	const seed = 42
	const query = "Identify the impact at a country level due to SeaMeWe-4 cable failure"
	cfg := netsim.SmallConfig(seed)
	_, addr0, kill0 := startWireWorker(t, cfg, 2, 0)
	_, addr1, _ := startWireWorker(t, cfg, 2, 1)

	remoteSys := cs1RemoteSystem(t, seed, []string{addr0, addr1})
	if w := wireStats(t, remoteSys); w.Registered != 2 {
		t.Fatalf("want 2 registered workers before the kill, got %+v", w)
	}
	kill0()

	rep, err := remoteSys.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatalf("ask after worker kill: %v", err)
	}
	wire := wireStats(t, remoteSys)
	if wire.Failovers == 0 {
		t.Fatalf("killed worker produced no failovers: %+v", wire)
	}

	inlineSys := cs1FleetSystem(t, seed, 0)
	repInline, err := inlineSys.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	outR, err := json.Marshal(rep.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	outI, err := json.Marshal(repInline.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if string(outR) != string(outI) {
		t.Errorf("failover outputs differ from inline:\nfailover: %s\ninline:   %s", outR, outI)
	}
}

// TestRemoteFleetHandshakeMismatch points a one-shard coordinator at
// a worker that owns shard 0 of two — the handshake must reject it
// permanently, and asks must still succeed entirely on the coordinator.
func TestRemoteFleetHandshakeMismatch(t *testing.T) {
	const seed, query = 42, "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	cfg := netsim.SmallConfig(seed)
	// Shard 0 of 2 ≠ shard 0 of 1: Shards and the fingerprint disagree.
	_, addr, _ := startWireWorker(t, cfg, 2, 0)

	remoteSys := cs1RemoteSystem(t, seed, []string{addr})
	wire := wireStats(t, remoteSys)
	if wire.Rejected != 1 || wire.Registered != 0 {
		t.Fatalf("mismatched worker should be rejected at registration: %+v", wire)
	}

	rep, err := remoteSys.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatalf("ask with rejected worker: %v", err)
	}
	wire = wireStats(t, remoteSys)
	if wire.Failovers == 0 {
		t.Fatalf("rejected worker should force failovers: %+v", wire)
	}
	if wire.Requests != 0 {
		t.Fatalf("no execute request may reach a rejected worker: %+v", wire)
	}

	inlineSys := cs1FleetSystem(t, seed, 0)
	repInline, err := inlineSys.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	outR, _ := json.Marshal(rep.Result.Outputs)
	outI, _ := json.Marshal(repInline.Result.Outputs)
	if string(outR) != string(outI) {
		t.Errorf("rejected-worker outputs differ from inline:\nremote: %s\ninline: %s", outR, outI)
	}
}

// TestRemoteFleetNullOutputFailsOver points a one-shard coordinator at
// a worker that passes registration but answers every execute request
// with a null impact report. The coordinator must refuse the value and
// fail over, so the full-registry CS1 ask (which scatters
// xaminer.impact_from_links) still answers exactly as inline.
func TestRemoteFleetNullOutputFailsOver(t *testing.T) {
	const seed, query = 42, "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, r.Body) // echo the coordinator's expectation
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("POST /v1/execute", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, `{"out":{"report":{"type":"*xaminer.ImpactReport","value":null}}}`)
	})
	fake := httptest.NewServer(mux)
	t.Cleanup(fake.Close)

	build := func(opts ...arachnet.Option) *arachnet.System {
		sys, err := arachnet.New(append(opts, arachnet.WithSmallWorld(seed))...)
		if err != nil {
			t.Fatal(err)
		}
		if f := sys.Fleet(); f != nil {
			t.Cleanup(f.Close)
		}
		return sys
	}
	remoteSys := build(arachnet.WithRemoteFleet(fake.Listener.Addr().String()))
	if w := wireStats(t, remoteSys); w.Registered != 1 {
		t.Fatalf("fake worker should register: %+v", w)
	}
	rep, err := remoteSys.Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatalf("ask over a worker answering null: %v", err)
	}
	if w := wireStats(t, remoteSys); w.Failovers == 0 {
		t.Fatalf("null output was accepted instead of failing over: %+v", w)
	}

	repInline, err := build().Ask(ctx, query, arachnet.AskWithoutCuration())
	if err != nil {
		t.Fatal(err)
	}
	outR, err := json.Marshal(rep.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	outI, err := json.Marshal(repInline.Result.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if string(outR) != string(outI) {
		t.Errorf("failover outputs differ from inline:\nfailover: %s\ninline:   %s", outR, outI)
	}
}

// TestFleetIgnoresWorkerScenario: a worker holds the world, and nothing
// else it holds may reach an answer. Two workers whose environments
// carry scenario 5 serve a remote System; it and an inline twin inject
// scenario 5 and then 6 on the coordinator. At each scenario, CS1
// (which scatters) and CS4 (which reads the scenario) asked without
// caches must give the inline values, over a wire that answered
// requests and failed nothing over, and no worker may serve one from
// its cache.
func TestFleetIgnoresWorkerScenario(t *testing.T) {
	const seed = 42
	const (
		cs1 = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
		cs4 = "A sudden increase in latency was observed from European probes to Asian destinations starting three days ago. Determine if a submarine cable failure caused this, and if so, identify the specific cable."
	)
	cfg := netsim.SmallConfig(seed)
	held := core.ScenarioConfig{Seed: 5}
	w0, addr0, _ := startWireWorker(t, cfg, 2, 0, held)
	w1, addr1, _ := startWireWorker(t, cfg, 2, 1, held)
	remoteSys, err := arachnet.New(arachnet.WithSmallWorld(seed), arachnet.WithRemoteFleet(addr0, addr1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remoteSys.Fleet().Close)
	inlineSys, err := arachnet.New(arachnet.WithSmallWorld(seed))
	if err != nil {
		t.Fatal(err)
	}
	systems := []*arachnet.System{remoteSys, inlineSys}
	for _, sc := range []uint64{5, 6} {
		for _, sys := range systems {
			if err := sys.Environment().InjectCableFailureScenario(arachnet.ScenarioConfig{Seed: sc}); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{cs1, cs4} {
			var vals [2][]byte
			for i, sys := range systems {
				rep, err := sys.Ask(ctx, q, arachnet.AskNoCache())
				if err != nil {
					t.Fatalf("scenario %d, %.40q: %v", sc, q, err)
				}
				if vals[i], err = json.Marshal(rep.Result.Values); err != nil {
					t.Fatal(err)
				}
			}
			if string(vals[0]) != string(vals[1]) {
				t.Errorf("scenario %d, %.40q: remote and inline values differ (%d and %d bytes)", sc, q, len(vals[0]), len(vals[1]))
			}
		}
	}
	if w := wireStats(t, remoteSys); w.Requests == 0 || w.Failovers != 0 {
		t.Errorf("want requests over the wire and no failover: %+v", w)
	}
	for i, w := range []*fleetwire.Server{w0, w1} {
		if hits := w.Worker().Stats().CacheHits; hits != 0 {
			t.Errorf("worker %d served %d uncached requests from its cache", i, hits)
		}
	}
}
