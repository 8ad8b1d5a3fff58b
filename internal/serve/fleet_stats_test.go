package serve

// Fleet-aware stats: a tenant served over a remote fleet must expose
// its counters in /v1/stats — total scatter/shard-local/declined
// dispatches, per-worker shard inventory and the wire counters — and
// no per-worker counter the coordinator cannot fill; each worker
// reports those at its own /v1/stats. The fleet is the one
// Config.FleetRemote attaches, over two fleetwire workers on loopback.

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"arachnet/internal/core"
	"arachnet/internal/fleet"
	"arachnet/internal/fleetwire"
)

func TestStatsExposeFleetCounters(t *testing.T) {
	env := testEnv(t)
	workers := make([]*fleetwire.Server, 2)
	addrs := make([]string, len(workers))
	for i := range workers {
		ws, err := fleetwire.NewServer(env.Clone(), nil, len(workers), i, 512)
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
		workers[i], addrs[i] = ws, ln.Addr().String()
	}
	_, ts := startServer(t, Config{
		Env:         env,
		FleetRemote: addrs,
		Tenants: []TenantConfig{{
			Name: "default", Capabilities: core.CS1RegistryNames(),
		}},
	})

	// Serve the fan-out query so the fleet actually handles steps.
	resp := postJSON(t, ts.URL+"/v1/ask", map[string]any{
		"query": "Identify the impact at a country level due to SeaMeWe-5 cable failure",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask status %d", resp.StatusCode)
	}
	resp.Body.Close()

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", sresp.StatusCode)
	}
	body, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Tenants map[string]struct {
			Cache struct {
				Fleet *fleet.Stats `json:"fleet"`
			} `json:"cache"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}

	ten, ok := stats.Tenants["default"]
	if !ok {
		t.Fatalf("no default tenant in stats: %v", stats)
	}
	fs := ten.Cache.Fleet
	if fs == nil {
		t.Fatal("stats carry no fleet block despite an attached fleet of 2")
	}
	if fs.Workers != 2 {
		t.Errorf("fleet workers = %d, want 2", fs.Workers)
	}
	if fs.Scattered+fs.ShardLocal == 0 {
		t.Errorf("fleet handled no steps: %+v", fs)
	}
	if len(fs.Shards) != 2 {
		t.Fatalf("stats carry %d shard entries, want 2", len(fs.Shards))
	}
	if w := fs.Wire; w == nil || w.Registered != 2 || w.Requests == 0 || w.Failovers != 0 {
		t.Errorf("wire block %+v, want 2 registered, requests and no failover", w)
	}
	var routers, executed uint64
	for _, sh := range fs.Shards {
		routers += uint64(sh.Routers)
	}
	for _, w := range workers {
		executed += w.Worker().Stats().Executed
	}
	if routers == 0 {
		t.Error("per-worker shard inventory reports zero routers")
	}
	if executed == 0 {
		t.Error("no worker reports executed steps")
	}

	// The coordinator lists each worker's inventory and no counters it
	// cannot fill; a worker's own stats carry its counters.
	var raw struct {
		Tenants map[string]struct {
			Cache struct {
				Fleet struct {
					Shards []map[string]json.RawMessage `json:"shards"`
				} `json:"fleet"`
			} `json:"cache"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	counters := []string{"executed", "cache_hits", "cache_entries"}
	for _, sh := range raw.Tenants["default"].Cache.Fleet.Shards {
		for _, k := range counters {
			if _, ok := sh[k]; ok {
				t.Errorf("coordinator shard entry carries %q: %v", k, sh)
			}
		}
	}
	for i, ws := range workers {
		rec := httptest.NewRecorder()
		ws.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var own struct {
			Shard map[string]json.RawMessage `json:"shard"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &own); err != nil {
			t.Fatalf("worker %d stats: %v", i, err)
		}
		for _, k := range append([]string{"worker", "routers"}, counters...) {
			if _, ok := own.Shard[k]; !ok {
				t.Errorf("worker %d stats lack %q: %s", i, k, rec.Body.Bytes())
			}
		}
	}
}
