// Command arachnet-serve runs the ArachNet pipeline as a long-lived
// multi-tenant HTTP service: synchronous asks, asynchronous jobs with
// SSE event streaming, cancellation, and cache/queue stats, all over
// one simulated world with per-tenant registry views, cache quotas and
// weighted-fair scheduling.
//
// Examples:
//
//	arachnet-serve -addr :8080 -world small
//	arachnet-serve -addr :8080 -scenario -tenants tenants.json -workers 8
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/ask \
//	  -d '{"query":"Identify the impact at a country level due to SeaMeWe-5 cable failure"}'
//
// A tenants.json file is a JSON array of tenant configurations:
//
//	[
//	  {"name": "alice", "weight": 3, "max_running": 4},
//	  {"name": "bob", "weight": 1, "max_queued": 16, "token": "s3cret"}
//	]
//
// With no -tenants file the server runs one open tenant named
// "default". SIGINT/SIGTERM triggers a graceful shutdown: new requests
// are refused, accepted jobs drain (bounded by -drain-timeout), then
// the process exits.
//
// With -snapshot FILE the server persists its warm caches across
// restarts: each tenant's plan and step caches are written to the file
// during graceful shutdown and restored at the next boot (when the
// world, seed, registry and scenario still match — a mismatch is
// logged and the tenant starts cold). A restarted server answers its
// first repeated query as a cache hit. With multiple tenants each
// tenant uses FILE.<name>.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/netsim"
	"arachnet/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		world        = flag.String("world", "full", "world size: full|small")
		seed         = flag.Uint64("seed", 42, "world seed")
		scenario     = flag.Bool("scenario", false, "inject a cable-failure measurement scenario (enables cascade/forensic queries)")
		workers      = flag.Int("workers", 0, "scheduler run slots: how many asks, jobs and subscription re-runs may run at once across all tenants (0 = GOMAXPROCS)")
		depth        = flag.Int("depth", 0, "global job queue depth (0 = default 128)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "default per-request pipeline timeout (0 = unbounded)")
		maxTimeout   = flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested timeouts (0 = uncapped)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		fleetRemote  = flag.String("fleet-remote", "", "comma-separated arachnet-worker addresses (host:port,...), one per shard; each tenant's fan-out steps scatter-gather across them")
		tenantsPath  = flag.String("tenants", "", "path to a JSON array of tenant configurations (empty = one open tenant)")
		snapshot     = flag.String("snapshot", "", "cache snapshot file: loaded per tenant at boot (if present and matching), rewritten during graceful shutdown — a restarted server answers repeated queries warm; with multiple tenants each uses file.<tenant>")
	)
	flag.Parse()

	var worldCfg netsim.Config
	switch *world {
	case "full":
		worldCfg = netsim.DefaultConfig(*seed)
	case "small":
		worldCfg = netsim.SmallConfig(*seed)
	default:
		fatal(fmt.Errorf("unknown world %q", *world))
	}
	env, err := core.NewEnvironment(worldCfg)
	if err != nil {
		fatal(err)
	}
	if *scenario {
		if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: *seed}); err != nil {
			fatal(err)
		}
	}

	cfg := serve.Config{
		Env:            env,
		Workers:        *workers,
		QueueDepth:     *depth,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		FleetRemote:    splitAddrs(*fleetRemote),
	}
	if *tenantsPath != "" {
		data, err := os.ReadFile(*tenantsPath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &cfg.Tenants); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *tenantsPath, err))
		}
	}

	server, err := serve.NewServer(cfg)
	if err != nil {
		fatal(err)
	}

	// Tenant snapshot paths: a single tenant owns the file as given;
	// multiple tenants each get a ".<name>" suffix so their isolated
	// caches never mix.
	tenantNames := []string{"default"}
	if len(cfg.Tenants) > 0 {
		tenantNames = tenantNames[:0]
		for _, tc := range cfg.Tenants {
			tenantNames = append(tenantNames, tc.Name)
		}
	}
	snapshotPath := func(tenant string) string {
		if len(tenantNames) == 1 {
			return *snapshot
		}
		return *snapshot + "." + tenant
	}
	if *snapshot != "" {
		for _, name := range tenantNames {
			t := server.Tenant(name)
			if t == nil {
				continue
			}
			loadSnapshot(t.System(), name, snapshotPath(name))
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: server}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("arachnet-serve: listening on %s (world=%s, tenants=%d)",
			*addr, *world, max(1, len(cfg.Tenants)))
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("arachnet-serve: draining (up to %v)...", *drainTimeout)

	// Refuse new work and drain accepted jobs first; in-flight SSE
	// streams and synchronous asks then finish on their own, so the
	// HTTP shutdown below completes promptly.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := server.Shutdown(drainCtx); err != nil {
		log.Printf("arachnet-serve: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("arachnet-serve: http shutdown: %v", err)
	}
	// Snapshot after the drain: the caches are quiescent, so the file
	// captures exactly the warm state the next boot restores.
	if *snapshot != "" {
		for _, name := range tenantNames {
			t := server.Tenant(name)
			if t == nil {
				continue
			}
			saveSnapshot(t.System(), name, snapshotPath(name))
		}
	}
	log.Printf("arachnet-serve: bye")
}

// loadSnapshot restores one tenant's cache snapshot. A missing file is
// a normal first boot; a mismatched one (different world, seed,
// registry or scenario) leaves the tenant cold — snapshots accelerate,
// they never gate serving.
func loadSnapshot(sys *core.System, tenant, path string) {
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Printf("arachnet-serve: snapshot %s (tenant %s): %v (starting cold)", path, tenant, err)
		}
		return
	}
	defer f.Close()
	if err := sys.LoadSnapshot(f); err != nil {
		log.Printf("arachnet-serve: snapshot %s (tenant %s) rejected: %v (starting cold)", path, tenant, err)
		return
	}
	log.Printf("arachnet-serve: snapshot %s (tenant %s) loaded", path, tenant)
}

// saveSnapshot writes one tenant's cache snapshot atomically (temp
// file + rename), so a crash mid-write never corrupts the previous
// snapshot.
func saveSnapshot(sys *core.System, tenant, path string) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		log.Printf("arachnet-serve: snapshot %s (tenant %s): %v", path, tenant, err)
		return
	}
	if err := sys.SaveSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		log.Printf("arachnet-serve: snapshot %s (tenant %s): %v", path, tenant, err)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		log.Printf("arachnet-serve: snapshot %s (tenant %s): %v", path, tenant, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		log.Printf("arachnet-serve: snapshot %s (tenant %s): %v", path, tenant, err)
		return
	}
	log.Printf("arachnet-serve: snapshot %s (tenant %s) saved", path, tenant)
}

func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arachnet-serve:", err)
	os.Exit(1)
}
