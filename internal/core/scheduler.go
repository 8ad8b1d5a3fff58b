// Job scheduling: the fairness seam every admission-controlled run
// passes. A Scheduler owns a bounded queue of claims and a fixed number
// of run slots; it grants slots to callers rather than running work
// itself, so each run executes on the goroutine that asked for it —
// a synchronous Ask on its caller's, a submitted Job on the one
// goroutine Submit starts for it. A System that never calls
// SetScheduler gets a private single-class scheduler for its jobs whose
// behavior is exactly the historical FIFO queue, while a serving tier
// can share one Scheduler across many Systems (one per tenant) to get
// weighted-fair grants, per-class concurrency caps and per-class
// admission control — the multi-tenant story the HTTP tier builds on.
//
// Fairness is stride scheduling: each class carries a virtual "pass";
// a freed slot goes to the runnable class with the lowest pass, which
// then advances by stride/weight, so over time classes receive run
// slots in proportion to their weights regardless of how bursty their
// arrival patterns are. A class at its MaxRunning cap simply stops
// being runnable — its pass freezes, so it loses no credit while
// capped.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// strideScale is the numerator of a class's per-grant pass advance
// (stride = strideScale / weight). Any large constant works; a power of
// two keeps float64 arithmetic exact for small weights.
const strideScale = 1 << 16

// ClassConfig bounds and weights one scheduling class (in the serving
// tier: one tenant).
type ClassConfig struct {
	// Weight is the class's share of run slots relative to the other
	// classes (default 1; non-positive values mean 1).
	Weight int `json:"weight,omitempty"`
	// MaxQueued bounds how many runs of this class may wait for a
	// slot; beyond it admission sheds with ErrJobQueueFull. Zero means
	// bounded only by the scheduler's global depth.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning caps how many runs of this class go at once. Zero
	// means bounded only by the scheduler's slots.
	MaxRunning int `json:"max_running,omitempty"`
}

// weight returns the effective (positive) weight.
func (c ClassConfig) weight() int {
	if c.Weight < 1 {
		return 1
	}
	return c.Weight
}

// ClassStats is the observable state of one scheduling class.
type ClassStats struct {
	Queued     int   `json:"queued"`
	Running    int   `json:"running"`
	Served     int64 `json:"served"`
	Shed       int64 `json:"shed"`
	Weight     int   `json:"weight"`
	MaxQueued  int   `json:"max_queued,omitempty"`
	MaxRunning int   `json:"max_running,omitempty"`
}

// QueueStats is the observable state of a Scheduler.
type QueueStats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Workers is the number of run slots: how many runs may go at once.
	Workers int `json:"workers"`
	Depth   int `json:"depth"`
	// Shed counts runs refused for any reason (global depth or a
	// per-class bound) since construction.
	Shed    int64                 `json:"shed"`
	Classes map[string]ClassStats `json:"classes,omitempty"`
}

// claimState is where a claim is in its life; every transition happens
// under Scheduler.mu.
type claimState uint8

const (
	claimQueued  claimState = iota // waiting in its class FIFO
	claimGranted                   // holds a run slot
	claimSettled                   // withdrawn from the queue, or its slot released
)

// claim is one caller's request for a run slot.
type claim struct {
	class *schedClass
	state claimState
	// ready is made by a waiter that finds the claim still queued and
	// closed on grant, so a claim granted at admission never allocates
	// it.
	ready chan struct{}
}

// schedClass is one class's queue state. The fifo is a slice with a
// moving head, compacted when the dead prefix dominates.
type schedClass struct {
	name    string
	cfg     ClassConfig
	fifo    []*claim
	head    int
	pass    float64
	running int
	served  int64
	shed    int64
}

func (c *schedClass) queued() int { return len(c.fifo) - c.head }

func (c *schedClass) push(cl *claim) { c.fifo = append(c.fifo, cl) }

func (c *schedClass) pop() *claim {
	cl := c.fifo[c.head]
	c.fifo[c.head] = nil
	c.head++
	if c.head > 64 && c.head*2 >= len(c.fifo) {
		c.fifo = append(c.fifo[:0], c.fifo[c.head:]...)
		c.head = 0
	}
	return cl
}

// remove takes a queued claim out of the FIFO, keeping the others in
// arrival order.
func (c *schedClass) remove(cl *claim) {
	if i := slices.Index(c.fifo[c.head:], cl); i >= 0 {
		c.fifo = slices.Delete(c.fifo, c.head+i, c.head+i+1)
	}
}

// runnable reports whether the class has a claim that may take a slot
// now.
func (c *schedClass) runnable() bool {
	return c.queued() > 0 && (c.cfg.MaxRunning <= 0 || c.running < c.cfg.MaxRunning)
}

// Scheduler is a weighted-fair admission queue over a fixed number of
// run slots. All methods are safe for concurrent use. A caller admits a
// claim, waits for its grant, runs on its own goroutine and releases
// the slot; a freed slot goes to the next claim in stride order. After
// Close, admission fails but already-admitted claims are still granted
// as slots free (cancel a run individually to abort it). One Scheduler
// may be shared by many Systems via System.SetScheduler — each run
// executes on the System that admitted it, so tenants keep their own
// registries and caches while competing for one set of slots.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond // signals Drain when queued+running falls
	workers int
	depth   int
	closed  bool
	classes map[string]*schedClass
	queued  int
	running int
	vtime   float64
	shed    int64
}

// NewScheduler builds a scheduler with the given number of run slots
// (workers: how many runs may go at once) and global queue depth.
// Non-positive values take the defaults (GOMAXPROCS slots, depth 128).
func NewScheduler(workers, depth int) *Scheduler {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 1 {
		depth = defaultJobQueueDepth
	}
	sc := &Scheduler{workers: workers, depth: depth, classes: make(map[string]*schedClass)}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// SetClass configures (or reconfigures) one scheduling class. Classes
// not configured explicitly come into existence on first use with
// weight 1 and no per-class bounds. SetClass may be called at any time;
// loosening MaxRunning takes effect immediately.
func (sc *Scheduler) SetClass(name string, cfg ClassConfig) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.classLocked(name).cfg = cfg
	sc.grantLocked()
}

func (sc *Scheduler) classLocked(name string) *schedClass {
	c, ok := sc.classes[name]
	if !ok {
		c = &schedClass{name: name, pass: sc.vtime}
		sc.classes[name] = c
	}
	return c
}

// admit queues a claim for a run slot under class, granting it at once
// if a slot is free and stride order picks it, or sheds it. Shedding is
// ErrJobQueueFull for both the global depth and a per-class MaxQueued
// bound; a closed scheduler refuses with ErrJobsClosed.
func (sc *Scheduler) admit(class string) (*claim, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return nil, ErrJobsClosed
	}
	if sc.queued >= sc.depth {
		sc.shed++
		return nil, fmt.Errorf("%w (depth %d)", ErrJobQueueFull, sc.depth)
	}
	c := sc.classLocked(class)
	if c.cfg.MaxQueued > 0 && c.queued() >= c.cfg.MaxQueued {
		c.shed++
		sc.shed++
		return nil, fmt.Errorf("%w (class %q at %d queued)", ErrJobQueueFull, class, c.queued())
	}
	// A class that was idle re-joins at the current virtual time so it
	// cannot burn banked credit to starve the others.
	if c.queued() == 0 && c.pass < sc.vtime {
		c.pass = sc.vtime
	}
	cl := &claim{class: c}
	c.push(cl)
	sc.queued++
	sc.grantLocked()
	return cl, nil
}

// grantLocked hands free slots to queued claims in stride order.
func (sc *Scheduler) grantLocked() {
	for sc.queued > 0 && sc.running < sc.workers {
		c := sc.pickLocked()
		if c == nil {
			return
		}
		cl := c.pop()
		sc.queued--
		c.running++
		sc.running++
		if c.pass > sc.vtime {
			sc.vtime = c.pass
		}
		c.pass += strideScale / float64(c.cfg.weight())
		cl.state = claimGranted
		if cl.ready != nil {
			close(cl.ready)
		}
	}
}

// pickLocked returns the runnable class with the minimum pass (ties
// broken by name for determinism), or nil when no class is runnable.
func (sc *Scheduler) pickLocked() *schedClass {
	var best *schedClass
	for _, c := range sc.classes {
		if !c.runnable() {
			continue
		}
		if best == nil || c.pass < best.pass || (c.pass == best.pass && c.name < best.name) {
			best = c
		}
	}
	return best
}

// wait blocks until the claim holds a slot (nil) or ctx ends first, in
// which case the claim gives up its place — or a slot granted in the
// meantime — and wait returns ctx's error.
func (sc *Scheduler) wait(ctx context.Context, cl *claim) error {
	sc.mu.Lock()
	switch cl.state {
	case claimGranted:
		sc.mu.Unlock()
		return nil
	case claimSettled:
		sc.mu.Unlock()
		return context.Canceled
	}
	if cl.ready == nil {
		cl.ready = make(chan struct{})
	}
	ready := cl.ready
	sc.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		sc.abandon(cl)
		return ctx.Err()
	}
}

// abandon settles a claim its caller will not run: a queued claim
// leaves the queue, a granted one frees its slot for the next claim.
// Abandoning a settled claim is a no-op.
func (sc *Scheduler) abandon(cl *claim) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch cl.state {
	case claimQueued:
		cl.class.remove(cl)
		sc.queued--
		cl.state = claimSettled
		sc.cond.Broadcast()
	case claimGranted:
		sc.releaseLocked(cl)
	}
}

// release returns a granted claim's slot after its run and grants the
// next claim.
func (sc *Scheduler) release(cl *claim) {
	sc.mu.Lock()
	sc.releaseLocked(cl)
	sc.mu.Unlock()
}

func (sc *Scheduler) releaseLocked(cl *claim) {
	cl.state = claimSettled
	cl.class.running--
	cl.class.served++
	sc.running--
	sc.grantLocked()
	sc.cond.Broadcast()
}

// Close stops admission: subsequent claims fail with ErrJobsClosed.
// Already-admitted claims — queued or running — are still granted and
// complete normally. Close is idempotent and returns without waiting;
// pair it with Drain for a graceful stop.
func (sc *Scheduler) Close() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
}

// Drain blocks until no run is queued or running, or ctx is done. It
// does not itself stop admission — close the submitting Systems (or the
// Scheduler) first, then Drain, for the shutdown sequence a server
// wants: refuse new work, finish accepted work, exit.
func (sc *Scheduler) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Broadcast under the lock so the wakeup cannot slip between a
	// waiter's ctx check and its Wait and be lost.
	stop := context.AfterFunc(ctx, func() {
		sc.mu.Lock()
		sc.cond.Broadcast()
		sc.mu.Unlock()
	})
	defer stop()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for sc.queued+sc.running > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc.cond.Wait()
	}
	return nil
}

// Stats snapshots the scheduler's observable state.
func (sc *Scheduler) Stats() QueueStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := QueueStats{
		Queued:  sc.queued,
		Running: sc.running,
		Workers: sc.workers,
		Depth:   sc.depth,
		Shed:    sc.shed,
		Classes: make(map[string]ClassStats, len(sc.classes)),
	}
	for name, c := range sc.classes {
		out.Classes[name] = ClassStats{
			Queued:     c.queued(),
			Running:    c.running,
			Served:     c.served,
			Shed:       c.shed,
			Weight:     c.cfg.weight(),
			MaxQueued:  c.cfg.MaxQueued,
			MaxRunning: c.cfg.MaxRunning,
		}
	}
	return out
}
