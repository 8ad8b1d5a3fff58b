package arachnet_test

// Remote fleet e2e: the HTTP wire under the fleet transport must be
// invisible in the results. A scattered ask served by real worker
// servers on loopback must be byte-identical to the in-process fleet;
// killing a worker mid-run, or a worker answering a value no
// capability can take, must degrade the ask to running the shard on
// the coordinator (failover counter ticks), never fail it; and a
// worker whose handshake disagrees must be rejected at registration
// while asks keep succeeding.

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"arachnet"
	"arachnet/internal/core"
	"arachnet/internal/fleetwire"
	"arachnet/internal/netsim"
)

// startWireWorker boots one real arachnet-worker server (the exact
// handler cmd/arachnet-worker serves) on a loopback listener and
// returns its address and a kill switch.
func startWireWorker(t testing.TB, cfg netsim.Config, shards, index int) (string, func()) {
	t.Helper()
	env, err := core.NewEnvironment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := fleetwire.NewServer(env, core.BuiltinRegistry(), shards, index, 512)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: ws}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String(), func() { hs.Close() }
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
// byte-identical to the degenerate in-process fleet of one.
func TestRemoteFleetByteIdentical(t *testing.T) {
	const seed, query = 42, "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	cfg := netsim.SmallConfig(seed)
	addr0, _ := startWireWorker(t, cfg, 2, 0)
	addr1, _ := startWireWorker(t, cfg, 2, 1)

	remoteSys := cs1RemoteSystem(t, seed, []string{addr0, addr1})
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
		t.Errorf("remote and in-process reports differ:\nremote: %s\nlocal:  %s", jr, jl)
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
	addr0, kill0 := startWireWorker(t, cfg, 2, 0)
	addr1, _ := startWireWorker(t, cfg, 2, 1)

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
// permanently, and asks must still succeed entirely in-process.
func TestRemoteFleetHandshakeMismatch(t *testing.T) {
	const seed, query = 42, "Identify the impact at a country level due to SeaMeWe-5 cable failure"
	cfg := netsim.SmallConfig(seed)
	// Shard 0 of 2 ≠ shard 0 of 1: Shards and the fingerprint disagree.
	addr, _ := startWireWorker(t, cfg, 2, 0)

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
