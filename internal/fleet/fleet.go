// Package fleet implements ArachNet's sharded worker fleet: the
// DIMES-style execution tier where the netsim world is partitioned
// into vantage-point shards (internal/netsim.PartitionWorld), each
// owned by one Worker — a worker process holding the world and a
// local step cache — and pure capability steps are routed to the
// shard that owns their data instead of running on the coordinator.
//
// # Model
//
// A Fleet is a workflow.Dispatcher. For each step the engine offers,
// the fleet consults the step capability's Scatter spec:
//
//   - Split partitions the step's input map by shard ownership
//     (links by their A-endpoint country, addresses by geolocated
//     prefix, ...). Inputs that land on a single shard become a
//     shard-local dispatch to the owning worker; inputs spanning
//     shards become a scatter — one sub-request per owning worker,
//     executed concurrently.
//   - Merge is the gather step: it combines the per-shard partial
//     outputs deterministically (sorted, conflict-checked) so the
//     merged result is byte-identical to running the capability
//     unsharded on the coordinator, regardless of shard count.
//
// Capabilities without a spec, inputs Split cannot partition, and
// impure or coordinator-pinned steps are declined back to the engine,
// which runs them locally — correctness never depends on the fleet.
//
// # Transport seam
//
// Workers are reached exclusively through the Transport interface,
// and a Request carries exactly what crosses a process boundary: the
// capability name, the shard-local input and a cache key.
// internal/fleetwire's HTTP Pool is the transport: each remote worker
// process holds its own copy of the world, its shard and a registry
// replica, and NewOver builds a Fleet over it without touching the
// dispatcher or the engine (arachnet.WithRemoteFleet, -fleet-remote).
// A worker holds the world and nothing else, so a scattered capability
// must not read the scenario (see Scatter). When a worker cannot serve
// a request, Send answers ErrUnavailable and DispatchStep runs that
// shard's part on the coordinator with the run's own environment.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"arachnet/internal/netsim"
	"arachnet/internal/registry"
)

// Scatter describes how one capability's steps scatter over shards
// and gather back. A worker runs its part against its own environment,
// which holds the world and no scenario, so a capability that reads
// the scenario must not have a spec: its worker would answer from
// whatever scenario that worker holds.
type Scatter struct {
	// Split partitions the step input by owning shard. Returning
	// ok=false declines the step (inputs missing, unpartitionable, or
	// containing data no shard owns); the decline condition must not
	// depend on the shard count, or differently-sized fleets would
	// diverge. An empty part map also declines.
	Split func(p *netsim.Partition, in map[string]any) (parts map[int]map[string]any, ok bool)
	// Merge gathers per-shard outputs into the step's final output
	// map. It receives the partition and the original input map so
	// order-sensitive capabilities can reconstruct input order. The
	// merged result must be identical to what the capability produces
	// unsharded.
	Merge func(p *netsim.Partition, orig map[string]any, parts map[int]map[string]any) (map[string]any, error)
}

// Fleet is a sharded worker pool implementing workflow.Dispatcher
// over a partitioned world.
type Fleet struct {
	part      *netsim.Partition
	transport Transport

	mu       sync.RWMutex
	scatters map[string]Scatter

	scattered  atomic.Uint64
	shardLocal atomic.Uint64
	declined   atomic.Uint64

	closeOnce sync.Once
}

// NewOver builds a Fleet that reaches shard i of part as worker i of
// t. It starts no workers of its own; t must reach one per shard, and
// the Fleet owns t from here on (Close closes it).
func NewOver(part *netsim.Partition, t Transport) *Fleet {
	return &Fleet{part: part, transport: t, scatters: map[string]Scatter{}}
}

// SetScatter registers (or replaces) the scatter spec for a
// capability. Steps of capabilities without a spec are declined.
func (f *Fleet) SetScatter(capability string, s Scatter) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scatters[capability] = s
}

// Workers returns the shard/worker count.
func (f *Fleet) Workers() int { return len(f.part.Shards) }

// DispatchStep implements workflow.Dispatcher: split the input by
// shard ownership, fan sub-requests out over the transport, and
// gather the partial outputs with the capability's Merge. A part whose
// worker is unavailable runs here, with capb against env.
func (f *Fleet) DispatchStep(ctx context.Context, capb *registry.Capability, in map[string]any, env any, fingerprint string) (map[string]any, bool, error) {
	f.mu.RLock()
	spec, ok := f.scatters[capb.Name]
	f.mu.RUnlock()
	if !ok || spec.Split == nil || spec.Merge == nil {
		f.declined.Add(1)
		return nil, false, nil
	}
	parts, ok := spec.Split(f.part, in)
	if !ok || len(parts) == 0 {
		f.declined.Add(1)
		return nil, false, nil
	}

	shards := make([]int, 0, len(parts))
	for s := range parts {
		if s < 0 || s >= f.Workers() {
			f.declined.Add(1)
			return nil, false, nil
		}
		shards = append(shards, s)
	}
	sort.Ints(shards)

	type reply struct {
		shard int
		out   map[string]any
		err   error
	}
	replies := make(chan reply, len(shards))
	for _, s := range shards {
		req := Request{Cap: capb.Name, In: parts[s], Key: workerKey(fingerprint, s)}
		go func() {
			resp, err := f.transport.Send(ctx, s, req)
			if errors.Is(err, ErrUnavailable) {
				resp.Out, err = Call(ctx, capb, env, req.In)
			}
			replies <- reply{shard: s, out: resp.Out, err: err}
		}()
	}
	outs := make(map[int]map[string]any, len(shards))
	var firstErr error
	for range shards {
		r := <-replies
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: worker %d: %w", r.shard, r.err)
		}
		outs[r.shard] = r.out
	}
	if firstErr != nil {
		return nil, true, firstErr
	}

	merged, err := spec.Merge(f.part, in, outs)
	if err != nil {
		return nil, true, fmt.Errorf("fleet: gather %s: %w", capb.Name, err)
	}
	if len(shards) == 1 {
		f.shardLocal.Add(1)
	} else {
		f.scattered.Add(1)
	}
	return merged, true, nil
}

// workerKey derives a worker-local cache key from a step fingerprint
// and the shard index. The per-shard input for a given fingerprint is
// deterministic (Split is a pure function of world and input), so the
// pair identifies the partial result exactly. An empty fingerprint
// disables worker caching for the request.
func workerKey(fingerprint string, shard int) string {
	if fingerprint == "" {
		return ""
	}
	return fmt.Sprintf("%s|%d", fingerprint, shard)
}

// ShardInventory describes what one worker's shard holds. It is all a
// Fleet knows of its workers; each worker counts its executions and
// cache itself (ShardStats).
type ShardInventory struct {
	Worker    int `json:"worker"`
	Countries int `json:"countries"`
	Routers   int `json:"routers"`
	Links     int `json:"links"`
}

// ShardStats is a worker's own view of its shard: the inventory and
// the worker's counters, as Worker.Stats and fleetwire's GET /v1/stats
// report them.
type ShardStats struct {
	ShardInventory
	Executed     uint64 `json:"executed"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheEntries int    `json:"cache_entries"`
}

// WireStats counts remote-transport activity: what a network transport
// under the fleet did on the coordinator's behalf. A wire transport
// (internal/fleetwire) implements WireStatser and its numbers surface
// through Stats.Wire — and from there through core.CacheStats.Fleet
// and /v1/stats.
type WireStats struct {
	// Remotes is the configured remote worker count; Registered of
	// them passed the handshake and are currently usable, Rejected
	// failed it permanently (shard fingerprint or registry generation
	// mismatch).
	Remotes    int `json:"remotes"`
	Registered int `json:"registered"`
	Rejected   int `json:"rejected"`
	// Requests counts requests answered over the wire; Retries counts
	// re-sent attempts after transient failures; Failovers counts
	// requests handed back to the coordinator (ErrUnavailable) because
	// the remote was unusable, refused them or exhausted its retries.
	Requests  uint64 `json:"requests"`
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	// HealthFailures counts failed health probes.
	HealthFailures uint64 `json:"health_failures"`
	// BytesSent/BytesReceived count codec payload bytes on the wire.
	BytesSent     uint64 `json:"bytes_sent"`
	BytesReceived uint64 `json:"bytes_received"`
}

// WireStatser is implemented by transports that move requests over a
// network; Fleet.Stats probes for it.
type WireStatser interface {
	WireStats() WireStats
}

// Stats is a point-in-time snapshot of fleet activity.
type Stats struct {
	Workers    int              `json:"workers"`
	Scattered  uint64           `json:"scattered"`
	ShardLocal uint64           `json:"shard_local"`
	Declined   uint64           `json:"declined"`
	Shards     []ShardInventory `json:"shards"`
	// Wire is present when the fleet's transport moves requests over a
	// network (see WireStatser).
	Wire *WireStats `json:"wire,omitempty"`
}

// Stats snapshots dispatch counters, per-worker shard inventory and,
// over a network transport, the wire counters.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Workers:    f.Workers(),
		Scattered:  f.scattered.Load(),
		ShardLocal: f.shardLocal.Load(),
		Declined:   f.declined.Load(),
		Shards:     make([]ShardInventory, f.Workers()),
	}
	for i, sh := range f.part.Shards {
		st.Shards[i] = shardInventory(i, sh)
	}
	if ws, ok := f.transport.(WireStatser); ok {
		w := ws.WireStats()
		st.Wire = &w
	}
	return st
}

// Close shuts the transport down. Idempotent.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() { f.transport.Close() })
}
