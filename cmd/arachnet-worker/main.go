// Command arachnet-worker runs one fleet worker as its own OS
// process: it generates the same world a coordinator does (identical
// -world/-seed derivation), takes ownership of one shard of the
// -shards partition, and serves shard-local capability execution over
// HTTP (see internal/fleetwire). Point a coordinator at a set of
// workers with -fleet-remote on arachnet or arachnet-serve.
//
// Example — a two-worker fleet on one machine:
//
//	arachnet-worker -addr 127.0.0.1:9101 -world small -shards 2 -index 0 &
//	arachnet-worker -addr 127.0.0.1:9102 -world small -shards 2 -index 1 &
//	arachnet -world small -fleet-remote 127.0.0.1:9101,127.0.0.1:9102 \
//	  -query "Identify the impact at a country level due to SeaMeWe-5 cable failure"
//
// The coordinator registers against each worker before routing work
// to it; a worker whose shard fingerprint or capability-catalog
// generation disagrees (wrong seed, world size, shard count or binary
// version) is rejected and its shard's requests run on the
// coordinator instead. SIGINT/SIGTERM shuts the worker down
// gracefully; the coordinator then runs the shard's requests itself,
// so in-flight asks complete either way.
//
// Pass -scenario when the coordinator injects the cable-failure
// scenario: scenario-reading capabilities (e.g. the traceroute
// archive-window scatter) then execute on the worker's own identical
// scenario copy. Without it such requests are refused and run on the
// coordinator — correct, just not remote.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/fleetwire"
	"arachnet/internal/netsim"
)

func main() {
	var (
		addr     = flag.String("addr", ":9100", "listen address")
		world    = flag.String("world", "full", "world size: full|small (must match the coordinator)")
		seed     = flag.Uint64("seed", 42, "world seed (must match the coordinator)")
		shards   = flag.Int("shards", 1, "total shard count of the fleet (must match the coordinator's worker count)")
		index    = flag.Int("index", 0, "which shard this worker owns (0-based)")
		entries  = flag.Int("cache-entries", 512, "per-shard step cache size (0 disables caching)")
		scenario = flag.Bool("scenario", false, "inject the cable-failure measurement scenario (must match the coordinator's -scenario)")
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
	srv, err := fleetwire.NewServer(env, core.BuiltinRegistry(), *shards, *index, *entries)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("arachnet-worker: %s listening on %s (world=%s seed=%d)",
			srv.Handshake(), *addr, *world, *seed)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("arachnet-worker: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("arachnet-worker: shutdown: %v", err)
	}
	log.Printf("arachnet-worker: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arachnet-worker:", err)
	os.Exit(1)
}
