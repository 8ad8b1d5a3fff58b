package fleet

import (
	"context"
	"errors"
)

// Request is one unit of work sent to a worker: execute a capability
// over a shard-local slice of a step's input.
//
// Every field crosses the process boundary: Cap (the capability name,
// resolved against the worker's own registry replica), In (the
// shard-local input map, value-encoded by the transport's codec), and
// Key (an opaque cache key the worker uses verbatim). The worker runs
// the capability against its own environment, which holds the world
// and nothing else (see Scatter). A worker that cannot resolve Cap or
// decode In must answer with a typed error, never a panic (see
// internal/fleetwire's wire errors).
type Request struct {
	// Cap names the capability; it is the wire identity of the work.
	Cap string
	// In is the shard-local input map produced by Scatter.Split. Its
	// values must survive the transport codec's round-trip.
	In map[string]any
	// Key caches the partial result in the worker's local store; ""
	// disables caching for this request.
	Key string
}

// Response is a worker's answer.
type Response struct {
	// Out is the capability's output map (partial, shard-scoped).
	Out map[string]any
	// CacheHit reports the result was served from the worker's local
	// step cache.
	CacheHit bool
}

// Transport moves Requests to workers. Implementations must be safe
// for concurrent Send calls; Send must honor ctx cancellation.
// internal/fleetwire's HTTP Pool is the implementation that reaches
// worker processes; NewOver builds a Fleet over any Transport.
type Transport interface {
	// Send executes req on the given worker and returns its response.
	// An error wrapping ErrUnavailable hands the request back to the
	// fleet, which runs it on the coordinator.
	Send(ctx context.Context, worker int, req Request) (Response, error)
	// Close releases transport resources; subsequent Sends fail.
	Close() error
}

// ErrTransportClosed is returned by Send after Close.
var ErrTransportClosed = errors.New("fleet: transport closed")

// ErrUnavailable is wrapped by Send errors that mean the worker cannot
// serve the request right now: it is unregistered, rejected or
// unhealthy, it refused the request, or it exhausted its retries.
// Fleet.DispatchStep then runs that shard's part on the coordinator,
// which owns the whole world, so the result is the one the worker
// would have produced.
var ErrUnavailable = errors.New("fleet: worker unavailable")
