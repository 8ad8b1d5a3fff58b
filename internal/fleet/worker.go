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
// requests with a bounded local result cache. Workers are only
// reached through a Transport.
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
// cacheEntries results (<= 0 disables caching). New builds one per
// shard of an in-process fleet; a remote worker process
// (cmd/arachnet-worker) owns a single one behind a network transport.
func NewWorker(index int, shard netsim.Shard, cacheEntries int) *Worker {
	w := &Worker{index: index, shard: shard, cacheCap: cacheEntries}
	if cacheEntries > 0 {
		w.cacheOrder = list.New()
		w.cacheByKey = make(map[string]*list.Element)
	}
	return w
}

// Index returns the worker's shard index.
func (w *Worker) Index() int { return w.index }

// Shard returns the worker's shard inventory.
func (w *Worker) Shard() netsim.Shard { return w.shard }

// Execute runs one request: serve from the local cache when keyed,
// otherwise Call the capability and remember the partial result.
func (w *Worker) Execute(ctx context.Context, req Request) (Response, error) {
	if req.Key != "" {
		if out, ok := w.cacheGet(req.Key); ok {
			w.cacheHits.Add(1)
			return Response{Out: out, CacheHit: true}, nil
		}
	}
	out, err := Call(ctx, req)
	if err != nil {
		return Response{}, err
	}
	w.executed.Add(1)
	if req.Key != "" {
		w.cachePut(req.Key, out)
	}
	return Response{Out: out}, nil
}

// Call runs req's capability once, uncached, and returns its output
// map. The capability pointer must already be resolved
// (req.Capability); transports that received the request over a wire
// resolve req.Cap against their own registry first. Panics are
// contained and returned as errors.
func Call(ctx context.Context, req Request) (map[string]any, error) {
	capb := req.Capability
	if capb == nil {
		return nil, fmt.Errorf("capability %q not resolvable", req.Cap)
	}
	call := &registry.Call{In: req.In, Out: map[string]any{}, Env: req.Env, Ctx: ctx}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("capability %q panicked: %v", req.Cap, r)
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
	st := shardInventory(w.index, w.shard)
	st.Executed = w.executed.Load()
	st.CacheHits = w.cacheHits.Load()
	st.CacheEntries = entries
	return st
}

// shardInventory is the counter-free ShardStats of shard index.
func shardInventory(index int, shard netsim.Shard) ShardStats {
	return ShardStats{
		Worker:    index,
		Countries: len(shard.Countries),
		Routers:   shard.Routers,
		Links:     shard.Links,
	}
}
