package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"arachnet/internal/registry"
)

// Request is one unit of work sent to a worker: execute a capability
// over a shard-local slice of a step's input.
//
// Serialization boundary: exactly three fields cross a process
// boundary — Cap (the capability name, resolved against the worker's
// own registry replica), In (the shard-local input map, value-encoded
// by the transport's codec), and Key (an opaque cache key the worker
// uses verbatim). Capability and Env are in-process-only fast paths: a
// remote transport must drop them on the wire, and the receiving
// worker re-resolves Cap and substitutes its own environment. A worker
// that cannot resolve Cap or decode In must answer with a typed error,
// never a panic (see internal/fleetwire's wire errors).
type Request struct {
	// Cap names the capability; it is the wire identity of the work.
	Cap string
	// Capability is the in-process fast path for Cap. It does not
	// cross the wire; remote workers resolve Cap themselves.
	Capability *registry.Capability
	// In is the shard-local input map produced by Scatter.Split. Its
	// values must survive the transport codec's round-trip.
	In map[string]any
	// Env is the execution environment handed to the capability. It
	// does not cross the wire; a remote worker substitutes its own
	// environment (identical world by construction).
	Env any
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
// for concurrent Send calls; Send must honor ctx cancellation. This
// is the multi-process seam: NewLocalTransport runs workers in this
// address space, and internal/fleetwire's HTTP transport reaches
// worker processes behind the same interface (see NewOver) without
// dispatcher changes.
type Transport interface {
	// Send executes req on the given worker and returns its response.
	Send(ctx context.Context, worker int, req Request) (Response, error)
	// Workers reports how many workers the transport reaches.
	Workers() int
	// Close releases transport resources; subsequent Sends fail.
	Close() error
}

// ErrTransportClosed is returned by Send after Close.
var ErrTransportClosed = errors.New("fleet: transport closed")

// localTransport delivers requests over per-worker channels to
// goroutine pools in the same process.
type localTransport struct {
	workers []*Worker
	reqs    []chan envelope
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

type envelope struct {
	ctx   context.Context
	req   Request
	reply chan result
}

type result struct {
	resp Response
	err  error
}

// NewLocalTransport starts parallelism serving goroutines per worker
// and returns the transport reaching them.
func NewLocalTransport(workers []*Worker, parallelism int) Transport {
	if parallelism < 1 {
		parallelism = 1
	}
	t := &localTransport{
		workers: workers,
		reqs:    make([]chan envelope, len(workers)),
		done:    make(chan struct{}),
	}
	for i, w := range workers {
		ch := make(chan envelope)
		t.reqs[i] = ch
		for p := 0; p < parallelism; p++ {
			t.wg.Add(1)
			go t.serve(w, ch)
		}
	}
	return t
}

func (t *localTransport) serve(w *Worker, ch chan envelope) {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case env := <-ch:
			resp, err := w.Execute(env.ctx, env.req)
			env.reply <- result{resp: resp, err: err}
		}
	}
}

func (t *localTransport) Send(ctx context.Context, worker int, req Request) (Response, error) {
	if worker < 0 || worker >= len(t.workers) {
		return Response{}, fmt.Errorf("fleet: no worker %d", worker)
	}
	env := envelope{ctx: ctx, req: req, reply: make(chan result, 1)}
	select {
	case t.reqs[worker] <- env:
	case <-t.done:
		return Response{}, ErrTransportClosed
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
	select {
	case r := <-env.reply:
		return r.resp, r.err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

func (t *localTransport) Workers() int { return len(t.workers) }

func (t *localTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	t.wg.Wait()
	return nil
}
