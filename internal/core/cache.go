// Cross-call memoization: a sharded, size-bounded LRU shared by every
// serving surface of a System (Ask, AskStream, AskBatch and the async
// job workers). Two instances exist per System — a plan cache keyed by
// (normalized query, registry generation, environment fingerprint)
// that skips the three planning agents for repeat queries, and a step
// cache behind the workflow.Cache interface that memoizes pure
// capability executions across runs. Sharding keeps concurrent callers
// off one mutex; per-shard LRU lists and byte accounting keep the
// whole structure bounded under sustained traffic.
package core

import (
	"container/list"
	"hash/maphash"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
	"arachnet/internal/xaminer"
)

// cacheShards is the shard count; keys are distributed by hash. A
// power of two keeps the index a mask.
const cacheShards = 16

// Default cache bounds applied by NewSystem, overridable per System
// with SetCacheLimits. Exported so tools that flush caches (via a
// disable/re-enable cycle) can re-arm the stock configuration.
const (
	DefaultPlanCacheEntries = 256
	DefaultStepCacheEntries = 4096
	DefaultStepCacheBytes   = 64 << 20 // 64 MiB of estimated value bytes
)

// CacheCounters is the observable state of one cache.
type CacheCounters struct {
	// Hits and Misses count Get outcomes since construction.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to honor the size bounds.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached entries.
	Entries int `json:"entries"`
	// Bytes is the current estimated footprint of cached values.
	Bytes int64 `json:"bytes"`
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookup.
func (c CacheCounters) HitRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// cacheEntry is one key→value pair plus its estimated size.
type cacheEntry struct {
	key  string
	val  any
	size int64
}

// cacheShard is one independently locked LRU segment.
type cacheShard struct {
	mu    sync.Mutex
	order *list.List // front = most recently used; elements hold *cacheEntry
	table map[string]*list.Element
	bytes int64
}

// lruCache is the sharded, size-bounded LRU. maxEntries <= 0 disables
// the cache entirely (Get always misses, Put is a no-op); maxBytes <= 0
// means no byte bound. Limits may be changed at any time; shrinking
// evicts immediately.
type lruCache struct {
	seed                 maphash.Seed
	maxEntries, maxBytes atomic.Int64
	hits, misses, evicts atomic.Int64
	shards               [cacheShards]cacheShard
}

// newLRUCache builds a cache with the given bounds.
func newLRUCache(maxEntries int, maxBytes int64) *lruCache {
	c := &lruCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].order = list.New()
		c.shards[i].table = make(map[string]*list.Element)
	}
	c.maxEntries.Store(int64(maxEntries))
	c.maxBytes.Store(maxBytes)
	return c
}

func (c *lruCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&(cacheShards-1)]
}

// Get returns the cached value for key, refreshing its recency.
// Lookups against a disabled cache miss without counting, so hit
// ratios describe only the periods the cache was actually on.
func (c *lruCache) Get(key string) (any, bool) {
	if c.maxEntries.Load() <= 0 {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.table[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.order.MoveToFront(el)
	v := el.Value.(*cacheEntry).val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Contains reports whether key is cached without counting a hit or a
// miss and without refreshing its recency.
func (c *lruCache) Contains(key string) bool {
	if c.maxEntries.Load() <= 0 {
		return false
	}
	s := c.shard(key)
	s.mu.Lock()
	_, ok := s.table[key]
	s.mu.Unlock()
	return ok
}

// Put stores (or refreshes) key with an estimated size, evicting the
// least recently used entries of the shard until the bounds hold.
func (c *lruCache) Put(key string, val any, size int64) {
	if c.maxEntries.Load() <= 0 {
		return
	}
	if size < 1 {
		size = 1
	}
	s := c.shard(key)
	s.mu.Lock()
	// Re-check under the shard lock: a concurrent SetCacheLimits(0, ...)
	// flush between the load above and here must not be undone by this
	// insert landing in a supposedly emptied cache.
	maxE := c.maxEntries.Load()
	if maxE <= 0 {
		s.mu.Unlock()
		return
	}
	if el, ok := s.table[key]; ok {
		ent := el.Value.(*cacheEntry)
		s.bytes += size - ent.size
		ent.val, ent.size = val, size
		s.order.MoveToFront(el)
	} else {
		s.table[key] = s.order.PushFront(&cacheEntry{key: key, val: val, size: size})
		s.bytes += size
	}
	c.evictLocked(s, maxE, c.maxBytes.Load())
	s.mu.Unlock()
}

// SetLimits rebounds the cache and evicts immediately if shrinking.
func (c *lruCache) SetLimits(maxEntries int, maxBytes int64) {
	c.maxEntries.Store(int64(maxEntries))
	c.maxBytes.Store(maxBytes)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if maxEntries <= 0 {
			// Disabled: drop everything without counting evictions as
			// pressure (the operator asked for the flush). clear keeps
			// the buckets allocated for a cheap re-enable.
			s.order.Init()
			clear(s.table)
			s.bytes = 0
		} else {
			c.evictLocked(s, int64(maxEntries), maxBytes)
		}
		s.mu.Unlock()
	}
}

// evictLocked drops LRU entries until the shard honors its share of
// the global bounds. Bounds divide evenly across shards (minimum one
// entry per shard so a tiny bound still caches something).
func (c *lruCache) evictLocked(s *cacheShard, maxEntries, maxBytes int64) {
	perEntries := maxEntries / cacheShards
	if perEntries < 1 {
		perEntries = 1
	}
	perBytes := int64(0)
	if maxBytes > 0 {
		perBytes = maxBytes / cacheShards
		if perBytes < 1 {
			perBytes = 1
		}
	}
	for int64(len(s.table)) > perEntries || (perBytes > 0 && s.bytes > perBytes && len(s.table) > 1) {
		el := s.order.Back()
		if el == nil {
			return
		}
		ent := el.Value.(*cacheEntry)
		s.order.Remove(el)
		delete(s.table, ent.key)
		s.bytes -= ent.size
		c.evicts.Add(1)
	}
}

// Counters snapshots the cache's observable state.
// entries snapshots every cached (key, value, size), shard by shard in
// recency order (most recent first within a shard). Each shard is
// copied under its own lock, so the view is per-shard consistent —
// good enough for the snapshot writer, which tolerates entries added
// or evicted mid-walk.
func (c *lruCache) entries() []cacheEntry {
	var out []cacheEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*cacheEntry)
			out = append(out, cacheEntry{key: ent.key, val: ent.val, size: ent.size})
		}
		s.mu.Unlock()
	}
	return out
}

func (c *lruCache) Counters() CacheCounters {
	out := CacheCounters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicts.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Entries += len(s.table)
		out.Bytes += s.bytes
		s.mu.Unlock()
	}
	return out
}

// stepCacheAdapter exposes an lruCache through the workflow.Cache
// interface, estimating output-map sizes on write.
type stepCacheAdapter struct{ c *lruCache }

func (a stepCacheAdapter) Get(key string) (map[string]any, bool) {
	v, ok := a.c.Get(key)
	if !ok {
		return nil, false
	}
	return v.(map[string]any), true
}

func (a stepCacheAdapter) Put(key string, outputs map[string]any) {
	a.c.Put(key, outputs, estimateSize(outputs))
}

// estimateSize approximates the in-memory footprint of a value for the
// cache's byte accounting. The common step-output shapes (address
// sets, link sets, geo tables, impact reports, and the output maps
// wrapping them) take a reflection-free fast path; anything else falls
// back to a bounded reflective walk that samples long collections, so
// the estimate is cheap and order-of-magnitude right rather than
// exact.
func estimateSize(v any) int64 {
	if s, ok := sizeHint(v); ok {
		return s
	}
	return estimateValue(reflect.ValueOf(v), 4)
}

// Element sizes for the hinted types. Computed once from the real
// layouts so the hints track the reflective estimates as types evolve.
var (
	hintAddrSize    = int64(unsafe.Sizeof(netip.Addr{}))
	hintLinkIDSize  = int64(unsafe.Sizeof(netsim.LinkID(0)))
	hintGeoRowSize  = int64(unsafe.Sizeof(GeoRow{}))
	hintImpactSize  = int64(unsafe.Sizeof(xaminer.ImpactReport{}))
	hintCountrySize = int64(unsafe.Sizeof(xaminer.CountryImpact{}))
)

// sliceHeader/stringHeader/mapOverhead approximate container costs the
// element sizes above don't cover.
const (
	hintSliceHeader = 24
	hintStringSize  = 16 // header; content added per value
	hintMapOverhead = 48
	hintMapEntry    = 16 // bucket slot bookkeeping per entry
)

// sizeHint returns a reflection-free footprint estimate for the value
// shapes the step cache actually stores (see the builtin catalog's
// outputs), or ok=false to fall back to the reflective estimator. The
// hints intentionally mirror estimateValue's accounting — header plus
// indirect payload — so mixing hinted and reflected values inside one
// output map stays consistent.
func sizeHint(v any) (int64, bool) {
	switch x := v.(type) {
	case nil:
		return 8, true
	case bool, int, int64, float64, netsim.LinkID:
		return 8, true
	case netip.Addr:
		return hintAddrSize, true
	case string:
		return hintStringSize + int64(len(x)), true
	case nautilus.CableID:
		return hintStringSize + int64(len(x)), true
	case []netip.Addr:
		return hintSliceHeader + int64(len(x))*hintAddrSize, true
	case []netsim.LinkID:
		return hintSliceHeader + int64(len(x))*hintLinkIDSize, true
	case []string:
		s := int64(hintSliceHeader)
		for _, e := range x {
			s += hintStringSize + int64(len(e))
		}
		return s, true
	case []nautilus.CableID:
		s := int64(hintSliceHeader)
		for _, e := range x {
			s += hintStringSize + int64(len(e))
		}
		return s, true
	case []GeoRow:
		s := hintSliceHeader + int64(len(x))*hintGeoRowSize
		for _, r := range x {
			s += int64(len(r.Country))
		}
		return s, true
	case *xaminer.ImpactReport:
		if x == nil {
			return 8, true
		}
		s := 8 + hintImpactSize + int64(len(x.Scenario))
		s += int64(len(x.Countries)) * hintCountrySize
		for _, c := range x.Countries {
			s += int64(len(c.Country))
		}
		return s, true
	case map[string]any:
		s := int64(hintMapOverhead)
		for k, val := range x {
			s += hintMapEntry + hintStringSize + int64(len(k))
			if hv, ok := sizeHint(val); ok {
				s += hv
			} else {
				s += estimateValue(reflect.ValueOf(val), 3)
			}
		}
		return s, true
	}
	return 0, false
}

// estimateItems bounds how many collection elements are inspected;
// beyond it the sampled mean is extrapolated.
const estimateItems = 32

func estimateValue(rv reflect.Value, depth int) int64 {
	if !rv.IsValid() {
		return 8
	}
	t := rv.Type()
	size := int64(t.Size())
	if depth <= 0 {
		return size
	}
	switch rv.Kind() {
	case reflect.String:
		size += int64(rv.Len())
	case reflect.Pointer, reflect.Interface:
		if !rv.IsNil() {
			size += estimateValue(rv.Elem(), depth-1)
		}
	case reflect.Slice, reflect.Array:
		n := rv.Len()
		if n == 0 {
			break
		}
		sample := n
		if sample > estimateItems {
			sample = estimateItems
		}
		var sum int64
		for i := 0; i < sample; i++ {
			sum += estimateValue(rv.Index(i), depth-1)
		}
		size += sum * int64(n) / int64(sample)
	case reflect.Map:
		n := rv.Len()
		if n == 0 {
			break
		}
		iter := rv.MapRange()
		var sum int64
		sampled := 0
		for iter.Next() && sampled < estimateItems {
			sum += estimateValue(iter.Key(), depth-1)
			sum += estimateValue(iter.Value(), depth-1)
			sampled++
		}
		if sampled > 0 {
			size += sum * int64(n) / int64(sampled)
		}
	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Field(i)
			switch f.Kind() {
			case reflect.String, reflect.Pointer, reflect.Interface,
				reflect.Slice, reflect.Array, reflect.Map, reflect.Struct:
				// t.Size() already counts the inline header; add only
				// the indirect payload.
				size += estimateValue(f, depth-1) - int64(f.Type().Size())
			}
		}
	}
	return size
}
