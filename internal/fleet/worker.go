package fleet

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"arachnet/internal/netsim"
	"arachnet/internal/registry"
)

// Worker owns one world shard and executes shard-local capability
// requests with a bounded local result cache. A worker process
// (internal/fleetwire.Server, cmd/arachnet-worker) owns one behind the
// wire.
type Worker struct {
	index int
	shard netsim.Shard

	executed  atomic.Uint64
	cacheHits atomic.Uint64

	cacheMu    sync.Mutex
	cacheCap   int
	cacheOrder *list.List               // front = most recent
	cacheByKey map[string]*list.Element // value: *workerEntry
}

type workerEntry struct {
	key string
	out map[string]any
}

// NewWorker builds a worker over one shard with a local step cache of
// cacheEntries results (<= 0 disables caching).
func NewWorker(index int, shard netsim.Shard, cacheEntries int) *Worker {
	w := &Worker{index: index, shard: shard, cacheCap: cacheEntries}
	if cacheEntries > 0 {
		w.cacheOrder = list.New()
		w.cacheByKey = make(map[string]*list.Element)
	}
	return w
}

// Execute runs req with capb, the worker's resolution of req.Cap,
// against env: serve from the local cache when keyed, otherwise Call
// the capability and remember the partial result.
func (w *Worker) Execute(ctx context.Context, capb *registry.Capability, env any, req Request) (Response, error) {
	if req.Key != "" {
		if out, ok := w.cacheGet(req.Key); ok {
			w.cacheHits.Add(1)
			return Response{Out: out, CacheHit: true}, nil
		}
	}
	out, err := Call(ctx, capb, env, req.In)
	if err != nil {
		return Response{}, err
	}
	w.executed.Add(1)
	if req.Key != "" {
		w.cachePut(req.Key, out)
	}
	return Response{Out: out}, nil
}

// Call runs capb once over in against env, uncached, and returns its
// output map. A worker calls it on its own environment; the fleet
// calls it on the run's when a worker is unavailable. Panics are
// contained and returned as errors.
func Call(ctx context.Context, capb *registry.Capability, env any, in map[string]any) (map[string]any, error) {
	call := &registry.Call{In: in, Out: map[string]any{}, Env: env, Ctx: ctx}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("capability %q panicked: %v", capb.Name, r)
			}
		}()
		return capb.Impl(call)
	}()
	if err != nil {
		return nil, err
	}
	return call.Out, nil
}

func (w *Worker) cacheGet(key string) (map[string]any, bool) {
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	if w.cacheByKey == nil {
		return nil, false
	}
	el, ok := w.cacheByKey[key]
	if !ok {
		return nil, false
	}
	w.cacheOrder.MoveToFront(el)
	return el.Value.(*workerEntry).out, true
}

func (w *Worker) cachePut(key string, out map[string]any) {
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	if w.cacheByKey == nil {
		return
	}
	if el, ok := w.cacheByKey[key]; ok {
		el.Value.(*workerEntry).out = out
		w.cacheOrder.MoveToFront(el)
		return
	}
	w.cacheByKey[key] = w.cacheOrder.PushFront(&workerEntry{key: key, out: out})
	for w.cacheOrder.Len() > w.cacheCap {
		el := w.cacheOrder.Back()
		w.cacheOrder.Remove(el)
		delete(w.cacheByKey, el.Value.(*workerEntry).key)
	}
}

// Stats snapshots the worker's shard inventory and counters.
func (w *Worker) Stats() ShardStats {
	w.cacheMu.Lock()
	entries := 0
	if w.cacheOrder != nil {
		entries = w.cacheOrder.Len()
	}
	w.cacheMu.Unlock()
	return ShardStats{
		ShardInventory: shardInventory(w.index, w.shard),
		Executed:       w.executed.Load(),
		CacheHits:      w.cacheHits.Load(),
		CacheEntries:   entries,
	}
}

// shardInventory is the inventory of shard index.
func shardInventory(index int, shard netsim.Shard) ShardInventory {
	return ShardInventory{
		Worker:    index,
		Countries: len(shard.Countries),
		Routers:   shard.Routers,
		Links:     shard.Links,
	}
}
