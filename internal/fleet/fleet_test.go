package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"arachnet/internal/netsim"
	"arachnet/internal/registry"
)

// countLinks is a toy pure capability: input "links" []netsim.LinkID,
// outputs "n" (count) and "codes" (sorted owning-country codes).
func countLinksCap(w *netsim.World) *registry.Capability {
	return &registry.Capability{
		Name: "test.count_links",
		Pure: true,
		Impl: func(c *registry.Call) error {
			links := c.In["links"].([]netsim.LinkID)
			codes := map[string]bool{}
			for _, id := range links {
				l, ok := w.LinkByID(id)
				if !ok {
					return fmt.Errorf("unknown link %d", id)
				}
				codes[w.CountryOfRouter(l.A)] = true
			}
			out := make([]string, 0, len(codes))
			for cc := range codes {
				out = append(out, cc)
			}
			sort.Strings(out)
			c.Out["n"] = len(links)
			c.Out["codes"] = out
			return nil
		},
	}
}

// countLinksScatter splits "links" by owning shard; merge sums counts
// and unions the code sets, sorted.
func countLinksScatter() Scatter {
	return Scatter{
		Split: func(p *netsim.Partition, _ any, in map[string]any) (map[int]map[string]any, bool) {
			links, ok := in["links"].([]netsim.LinkID)
			if !ok {
				return nil, false
			}
			parts := map[int]map[string]any{}
			for _, id := range links {
				s := p.ShardOfLink(id)
				if s < 0 {
					return nil, false
				}
				part := parts[s]
				if part == nil {
					part = map[string]any{"links": []netsim.LinkID(nil)}
					parts[s] = part
				}
				part["links"] = append(part["links"].([]netsim.LinkID), id)
			}
			return parts, true
		},
		Merge: func(p *netsim.Partition, _ any, orig map[string]any, parts map[int]map[string]any) (map[string]any, error) {
			n := 0
			codes := map[string]bool{}
			for _, out := range parts {
				n += out["n"].(int)
				for _, cc := range out["codes"].([]string) {
					codes[cc] = true
				}
			}
			merged := make([]string, 0, len(codes))
			for cc := range codes {
				merged = append(merged, cc)
			}
			sort.Strings(merged)
			return map[string]any{"n": n, "codes": merged}, nil
		},
	}
}

func testWorld(t *testing.T) *netsim.World {
	t.Helper()
	w, err := netsim.Generate(netsim.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func allLinks(w *netsim.World) []netsim.LinkID {
	ids := make([]netsim.LinkID, len(w.IPLinks))
	for i := range w.IPLinks {
		ids[i] = w.IPLinks[i].ID
	}
	return ids
}

func TestScatterGatherMatchesLocal(t *testing.T) {
	w := testWorld(t)
	capb := countLinksCap(w)

	// Ground truth: run the capability unsharded.
	local := &registry.Call{In: map[string]any{"links": allLinks(w)}, Out: map[string]any{}}
	if err := capb.Impl(local); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 4} {
		f, err := New(w, n)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.SetScatter(capb.Name, countLinksScatter())

		out, handled, err := f.DispatchStep(context.Background(), capb, map[string]any{"links": allLinks(w)}, nil, "fp1")
		if err != nil || !handled {
			t.Fatalf("fleet %d: handled=%v err=%v", n, handled, err)
		}
		if out["n"] != local.Out["n"] {
			t.Fatalf("fleet %d: n=%v, local %v", n, out["n"], local.Out["n"])
		}
		if fmt.Sprint(out["codes"]) != fmt.Sprint(local.Out["codes"]) {
			t.Fatalf("fleet %d: codes=%v, local %v", n, out["codes"], local.Out["codes"])
		}

		st := f.Stats()
		if n == 1 {
			if st.ShardLocal != 1 || st.Scattered != 0 {
				t.Fatalf("fleet 1 stats: %+v", st)
			}
		} else if st.Scattered != 1 {
			t.Fatalf("fleet %d stats: %+v", n, st)
		}
	}
}

func TestDeclineUnknownCapability(t *testing.T) {
	w := testWorld(t)
	f, err := New(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	capb := countLinksCap(w)
	_, handled, err := f.DispatchStep(context.Background(), capb, map[string]any{"links": allLinks(w)}, nil, "")
	if handled || err != nil {
		t.Fatalf("expected decline, got handled=%v err=%v", handled, err)
	}
	if st := f.Stats(); st.Declined != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDeclineUnpartitionableInput(t *testing.T) {
	w := testWorld(t)
	f, err := New(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	capb := countLinksCap(w)
	f.SetScatter(capb.Name, countLinksScatter())
	// Wrong input type → Split declines → engine would run locally.
	_, handled, err := f.DispatchStep(context.Background(), capb, map[string]any{"links": "nope"}, nil, "")
	if handled || err != nil {
		t.Fatalf("expected decline, got handled=%v err=%v", handled, err)
	}
}

func TestWorkerCacheHit(t *testing.T) {
	w := testWorld(t)
	f, err := New(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	capb := countLinksCap(w)
	f.SetScatter(capb.Name, countLinksScatter())

	in := map[string]any{"links": allLinks(w)}
	for i := 0; i < 2; i++ {
		if _, handled, err := f.DispatchStep(context.Background(), capb, in, nil, "fpX"); !handled || err != nil {
			t.Fatalf("round %d: handled=%v err=%v", i, handled, err)
		}
	}
	st := f.Stats()
	var executed, hits, entries uint64
	for _, s := range st.Shards {
		executed += s.Executed
		hits += s.CacheHits
		entries += uint64(s.CacheEntries)
	}
	if executed != 2 || hits != 2 || entries != 2 {
		t.Fatalf("executed=%d hits=%d entries=%d, want 2/2/2 (%+v)", executed, hits, entries, st.Shards)
	}

	// An empty fingerprint must bypass worker caching entirely.
	if _, handled, err := f.DispatchStep(context.Background(), capb, in, nil, ""); !handled || err != nil {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	st = f.Stats()
	var hits2 uint64
	for _, s := range st.Shards {
		hits2 += s.CacheHits
	}
	if hits2 != hits {
		t.Fatalf("uncacheable dispatch hit the worker cache: %d → %d", hits, hits2)
	}
}

// countingTransport proves the transport seam: a wrapper sees every
// Send without the dispatcher knowing.
type countingTransport struct {
	Transport
	sends atomic.Uint64
}

func (c *countingTransport) Send(ctx context.Context, worker int, req Request) (Response, error) {
	c.sends.Add(1)
	return c.Transport.Send(ctx, worker, req)
}

func TestTransportSeam(t *testing.T) {
	w := testWorld(t)
	part, err := netsim.PartitionWorld(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*Worker, len(part.Shards))
	for i, sh := range part.Shards {
		workers[i] = NewWorker(i, sh, 0)
	}
	ct := &countingTransport{Transport: NewLocalTransport(workers, 1)}
	f := NewOver(part, ct)
	defer f.Close()
	capb := countLinksCap(w)
	f.SetScatter(capb.Name, countLinksScatter())
	if _, handled, err := f.DispatchStep(context.Background(), capb, map[string]any{"links": allLinks(w)}, nil, ""); !handled || err != nil {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	if got := ct.sends.Load(); got != 3 {
		t.Fatalf("transport saw %d sends, want one per shard (3)", got)
	}
}

func TestCloseFailsSends(t *testing.T) {
	w := testWorld(t)
	f, err := New(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	capb := countLinksCap(w)
	f.SetScatter(capb.Name, countLinksScatter())
	f.Close()
	f.Close() // idempotent
	_, handled, err := f.DispatchStep(context.Background(), capb, map[string]any{"links": allLinks(w)}, nil, "")
	if !handled || err == nil {
		t.Fatalf("expected transport-closed error, got handled=%v err=%v", handled, err)
	}
}

func TestContextCancellation(t *testing.T) {
	w := testWorld(t)
	f, err := New(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	capb := countLinksCap(w)
	f.SetScatter(capb.Name, countLinksScatter())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, handled, err := f.DispatchStep(ctx, capb, map[string]any{"links": allLinks(w)}, nil, "")
	if !handled || err == nil {
		t.Fatalf("expected cancellation error, got handled=%v err=%v", handled, err)
	}
}
