package serve

// Fleet-aware stats: a tenant System with a worker fleet attached
// must expose its counters in /v1/stats — total
// scatter/shard-local/declined dispatches plus per-worker shard
// inventory and cache activity. The fleet here is the in-process
// stand-in for the remote fleet Config.FleetRemote attaches.

import (
	"net/http"
	"testing"

	"arachnet/internal/core"
	"arachnet/internal/fleet"
)

func TestStatsExposeFleetCounters(t *testing.T) {
	env := testEnv(t)
	srv, ts := startServer(t, Config{
		Env: env,
		Tenants: []TenantConfig{{
			Name: "default", Capabilities: core.CS1RegistryNames(),
		}},
	})
	f, err := fleet.New(env.World, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.Tenant("default").System().SetFleet(f)

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
	var stats struct {
		Tenants map[string]struct {
			Cache struct {
				Fleet *fleet.Stats `json:"fleet"`
			} `json:"cache"`
		} `json:"tenants"`
	}
	decodeBody(t, sresp, &stats)

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
	var routers, executed uint64
	for _, sh := range fs.Shards {
		routers += uint64(sh.Routers)
		executed += sh.Executed
	}
	if routers == 0 {
		t.Error("per-worker shard inventory reports zero routers")
	}
	if executed == 0 {
		t.Error("no worker reports executed steps")
	}
}
