// Package fleetwire puts a real wire under the fleet's Transport
// seam: an HTTP/JSON transport that carries step input and output
// values between OS processes as core's port-value envelopes, so the
// same scatter-gather plans the in-process fleet runs (internal/fleet)
// execute against remote worker processes (cmd/arachnet-worker) —
// DIMES-style scale-out with reports byte-identical to in-process and
// inline execution.
//
// # Topology
//
// A coordinator partitions its world into one shard per remote address
// and builds its fleet over a Pool (NewFleet); it starts no in-process
// workers. The Pool maps shard i to the i-th remote address. Each
// remote is a cmd/arachnet-worker process that derived the same world
// from the same -world/-seed/-shards flags, so shard contents agree by
// construction — and the registration handshake
// (netsim.Partition.ShardFingerprint plus the builtin-catalog registry
// generation) proves it before any request is routed there.
//
// # Failure semantics
//
// Correctness never depends on a remote. Every Send falls back to
// running the request on the coordinator — the same capability call a
// worker makes, uncached — when the remote is unregistered, rejected,
// unhealthy, or exhausts its retries. The coordinator owns the whole
// world, so the fallback result is exactly what the remote would have
// produced, and a killed worker degrades an ask, never fails it.
// Typed worker refusals (unknown capability, undecodable input or
// output) fail over immediately without retrying; transport errors are
// re-sent once, each attempt bounded by a 15 s timeout. A background
// loop health-checks remotes every 2 s, re-registers the unhealthy,
// and permanently rejects handshake mismatches. All of it is counted
// in fleet.WireStats, surfaced through Fleet.Stats,
// core.CacheStats.Fleet and /v1/stats.
package fleetwire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/fleet"
	"arachnet/internal/netsim"
)

// Pool timing: each execute, registration and health attempt is
// bounded by requestTimeout; a transiently failed execute is re-sent
// maxRetries times before failing over; the health loop runs every
// healthInterval.
const (
	requestTimeout = 15 * time.Second
	maxRetries     = 1
	healthInterval = 2 * time.Second
)

// NewFleet builds a fleet over the remote workers at addrs (host:port
// or a full http URL): shard i of world's len(addrs)-way partition is
// served by addrs[i], with failover to the coordinator (see Pool).
// Workers must serve the builtin catalog, as arachnet-worker does.
func NewFleet(world *netsim.World, addrs []string) (*fleet.Fleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("fleetwire: no remote worker addresses")
	}
	part, err := netsim.PartitionWorld(world, len(addrs))
	if err != nil {
		return nil, err
	}
	p, err := newPool(part, addrs)
	if err != nil {
		return nil, err
	}
	return fleet.NewOver(part, p), nil
}

// Remote registration states.
const (
	remoteUnregistered = iota // never handshaken; health loop keeps trying
	remoteHealthy             // registered and answering
	remoteUnhealthy           // registered once, now failing; probed for recovery
	remoteRejected            // handshake mismatch; never used again
)

type remote struct {
	index int
	base  string    // http://host:port
	hs    handshake // the coordinator's expectation of this worker

	mu    sync.Mutex
	state int
}

func (r *remote) getState() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *remote) setState(s int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == remoteRejected {
		return // rejection is permanent
	}
	r.state = s
}

// Pool is the coordinator side of the wire: a fleet.Transport that
// routes shard requests to registered remote workers and runs a
// request on the coordinator on any trouble.
type Pool struct {
	remotes []*remote // remotes[i] serves shard i

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	requests       atomic.Uint64
	retries        atomic.Uint64
	failovers      atomic.Uint64
	healthFailures atomic.Uint64
	bytesSent      atomic.Uint64
	bytesReceived  atomic.Uint64
}

// newPool routes shard i of part to addrs[i]. Registration of every
// remote is attempted immediately; failures are left to the health
// loop, so a Pool over dead workers still constructs (and serves
// everything on the coordinator).
func newPool(part *netsim.Partition, addrs []string) (*Pool, error) {
	gen := core.BuiltinRegistry().Generation()
	p := &Pool{remotes: make([]*remote, len(addrs)), done: make(chan struct{})}
	for i, addr := range addrs {
		fp, err := part.ShardFingerprint(i)
		if err != nil {
			return nil, err
		}
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		p.remotes[i] = &remote{
			index: i,
			base:  strings.TrimRight(base, "/"),
			hs:    handshake{Index: i, Shards: len(addrs), ShardFingerprint: fp, RegistryGeneration: gen},
		}
	}
	// First registration pass, bounded per remote; workers that are
	// not up yet are picked up by the health loop.
	for _, r := range p.remotes {
		p.register(r)
	}
	p.wg.Add(1)
	go p.healthLoop()
	return p, nil
}

// register performs the /v1/register handshake. A mismatch rejects
// the remote permanently; transport failure leaves it for the health
// loop; success marks it healthy.
func (p *Pool) register(r *remote) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	body, err := json.Marshal(r.hs)
	if err != nil {
		return
	}
	status, respBody, err := p.post(ctx, r.base+"/v1/register", body)
	if err != nil {
		p.healthFailures.Add(1)
		return
	}
	if status == httpStatus(CodeHandshakeMismatch) {
		r.mu.Lock()
		r.state = remoteRejected
		r.mu.Unlock()
		return
	}
	var got handshake
	if status != http.StatusOK || json.Unmarshal(respBody, &got) != nil || !r.hs.matches(got) {
		// A worker that answers the endpoint but not the contract is
		// as unusable as a mismatch.
		r.mu.Lock()
		r.state = remoteRejected
		r.mu.Unlock()
		return
	}
	r.setState(remoteHealthy)
}

// healthLoop probes healthy remotes and re-registers unhealthy or
// never-registered ones until Close.
func (p *Pool) healthLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(healthInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-tick.C:
		}
		for _, r := range p.remotes {
			switch r.getState() {
			case remoteHealthy:
				if !p.healthy(r) {
					p.healthFailures.Add(1)
					r.setState(remoteUnhealthy)
				}
			case remoteUnhealthy, remoteUnregistered:
				p.register(r)
			}
		}
	}
}

// healthy probes GET /healthz.
func (p *Pool) healthy(r *remote) bool {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// post sends one JSON body and returns status and response body.
// Counts codec bytes both ways.
func (p *Pool) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	p.bytesSent.Add(uint64(len(body)))
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	p.bytesReceived.Add(uint64(len(respBody)))
	return resp.StatusCode, respBody, nil
}

// Send implements fleet.Transport: encode, route to the shard's
// remote with retry, and fail over to the coordinator whenever the
// remote cannot answer. The coordinator owns the whole world, so the
// result is the same either way.
func (p *Pool) Send(ctx context.Context, worker int, req fleet.Request) (fleet.Response, error) {
	select {
	case <-p.done:
		return fleet.Response{}, fleet.ErrTransportClosed
	default:
	}
	r := p.remotes[worker]
	if r.getState() != remoteHealthy {
		return p.failover(ctx, req)
	}
	in, err := core.EncodePortValues(req.In)
	if err != nil {
		// Un-encodable inputs are a coordinator-side condition; the
		// coordinator takes the request by reference.
		return p.failover(ctx, req)
	}
	body, err := json.Marshal(executeRequest{Cap: req.Cap, Key: req.Key, In: in})
	if err != nil {
		return p.failover(ctx, req)
	}

	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
		}
		resp, retryable, err := p.sendOnce(ctx, r, body)
		if err == nil {
			p.requests.Add(1)
			return resp, nil
		}
		if ctx.Err() != nil {
			// The ask itself is dying; don't mask that with a failover.
			return fleet.Response{}, ctx.Err()
		}
		if !retryable {
			break
		}
	}
	// Retries exhausted (or the worker refused): the remote is not
	// serving this shard right now. Mark it for the health loop and
	// degrade to the coordinator.
	r.setState(remoteUnhealthy)
	return p.failover(ctx, req)
}

// failover runs req on the coordinator: the capability call a worker
// makes (fleet.Call), without the worker's cache.
func (p *Pool) failover(ctx context.Context, req fleet.Request) (fleet.Response, error) {
	p.failovers.Add(1)
	out, err := fleet.Call(ctx, req)
	return fleet.Response{Out: out}, err
}

// sendOnce performs one execute attempt. retryable reports whether
// the failure was transport-level (worth re-sending) as opposed to a
// typed refusal by a live worker.
func (p *Pool) sendOnce(ctx context.Context, r *remote, body []byte) (fleet.Response, bool, error) {
	actx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	status, respBody, err := p.post(actx, r.base+"/v1/execute", body)
	if err != nil {
		return fleet.Response{}, true, err
	}
	if status != http.StatusOK {
		var fail struct {
			Error *wireError `json:"error"`
		}
		if json.Unmarshal(respBody, &fail) == nil && fail.Error != nil {
			// A typed refusal: the worker is alive but cannot serve
			// this request; retrying the same request is pointless.
			return fleet.Response{}, false, fail.Error
		}
		return fleet.Response{}, true, fmt.Errorf("fleetwire: worker %d: HTTP %d", r.index, status)
	}
	var wr executeResponse
	if err := json.Unmarshal(respBody, &wr); err != nil {
		return fleet.Response{}, true, fmt.Errorf("fleetwire: worker %d: decode response: %w", r.index, err)
	}
	out, err := core.DecodePortValues(wr.Out)
	if err != nil {
		return fleet.Response{}, false, err
	}
	return fleet.Response{Out: out, CacheHit: wr.CacheHit}, false, nil
}

// Workers implements fleet.Transport.
func (p *Pool) Workers() int { return len(p.remotes) }

// Close stops the health loop.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		p.wg.Wait()
	})
	return nil
}

// WireStats implements fleet.WireStatser.
func (p *Pool) WireStats() fleet.WireStats {
	st := fleet.WireStats{
		Requests:       p.requests.Load(),
		Retries:        p.retries.Load(),
		Failovers:      p.failovers.Load(),
		HealthFailures: p.healthFailures.Load(),
		BytesSent:      p.bytesSent.Load(),
		BytesReceived:  p.bytesReceived.Load(),
	}
	st.Remotes = len(p.remotes)
	for _, r := range p.remotes {
		switch r.getState() {
		case remoteHealthy:
			st.Registered++
		case remoteRejected:
			st.Rejected++
		}
	}
	return st
}
