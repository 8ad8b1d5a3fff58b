package core

// Standing-query battery: the fingerprint race regression, facet-scoped
// fingerprints, the change-notification seams, subscription delta
// semantics (error→success transitions, registry heartbeats), delta
// determinism across identical mutation sequences, a concurrent
// hammer, and close semantics. Everything here must pass under -race.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"arachnet/internal/registry"
)

// TestFingerprintEpochRace reads the fingerprints and the epoch while
// InjectCableFailureScenario swaps the epoch; it must pass under -race.
func TestFingerprintEpochRace(t *testing.T) {
	env := testEnv(t, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = env.Fingerprint()
				_ = env.FacetFingerprint([]string{FacetWorld})
				_ = env.Epoch()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: uint64(i + 10)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// testEnv injected once, the loop four more times.
	if got := env.Epoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
}

func TestFacetFingerprint(t *testing.T) {
	env := testEnv(t, false)
	full := env.Fingerprint()
	world := env.FacetFingerprint([]string{FacetWorld})
	scen := env.FacetFingerprint([]string{FacetWorld, FacetScenario})
	if env.FacetFingerprint(nil) != full {
		t.Error("empty reads must fall back to the full fingerprint")
	}
	if env.FacetFingerprint([]string{"mystery"}) != full {
		t.Error("unknown facet must fall back to the full fingerprint")
	}
	if world == scen || world == full {
		t.Errorf("facet fingerprints not distinct: world=%q scen=%q full=%q", world, scen, full)
	}

	if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if got := env.FacetFingerprint([]string{FacetWorld}); got != world {
		t.Errorf("world facet changed across injection: %q -> %q", world, got)
	}
	if got := env.FacetFingerprint([]string{FacetWorld, FacetScenario}); got == scen {
		t.Error("scenario facet did not change across injection")
	}
	if env.Fingerprint() == full {
		t.Error("full fingerprint did not change across injection")
	}
}

func TestEnvironmentWatchAndClone(t *testing.T) {
	env := testEnv(t, false)
	ch := make(chan struct{}, 1)
	env.Watch(ch)
	if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("watcher not poked by injection")
	}

	clone := env.Clone()
	if clone.Fingerprint() == env.Fingerprint() {
		t.Error("clone shares the source's fingerprint identity")
	}
	if clone.World != env.World || clone.Scenario() != env.Scenario() {
		t.Error("clone must share the world and carry the current scenario")
	}
	// Mutating the clone is invisible to the source: no epoch bump, no
	// poke on the source's watcher.
	before := env.Epoch()
	if err := clone.InjectCableFailureScenario(ScenarioConfig{Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if env.Epoch() != before {
		t.Error("clone injection bumped the source's epoch")
	}
	select {
	case <-ch:
		t.Error("clone injection poked the source's watcher")
	default:
	}

	env.Unwatch(ch)
	if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Error("unwatched channel still poked")
	default:
	}
}

// collectUntil drains events from ch until pred returns true (that
// event is included) or the timeout expires.
func collectUntil(t *testing.T, ch <-chan SubEvent, timeout time.Duration, pred func(SubEvent) bool) []SubEvent {
	t.Helper()
	deadline := time.After(timeout)
	var out []SubEvent
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event channel closed after %d events: %#v", len(out), out)
			}
			out = append(out, ev)
			if pred(ev) {
				return out
			}
		case <-deadline:
			t.Fatalf("timed out after %d events waiting for predicate", len(out))
		}
	}
}

func waitRevision(t *testing.T, sub *Subscription, want int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if sub.Revision() >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("subscription stuck at revision %d, want %d", sub.Revision(), want)
}

// TestSubscribeErrorToSuccessDelta is the headline transition: a
// standing forensic query whose baseline fails for lack of scenario
// data, then succeeds after an injection. The subscription stays open
// through the failure and reports the transition as a ResultChanged
// delta (error cleared, outputs added) plus AnomalyAppeared signals.
func TestSubscribeErrorToSuccessDelta(t *testing.T) {
	env := testEnv(t, false)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sub, err := sys.Subscribe(ctx, queryCS4)
	if err != nil {
		t.Fatal(err)
	}
	if rep, berr := sub.Current(); berr == nil {
		t.Fatalf("baseline unexpectedly succeeded without scenario data: %+v", rep)
	}

	if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	waitRevision(t, sub, 1)

	events := collectUntil(t, sub.Events(), 60*time.Second, func(ev SubEvent) bool {
		_, ok := ev.(*ResultChanged)
		return ok
	})
	started, ok := events[0].(*SubscriptionStarted)
	if !ok {
		t.Fatalf("first event is %T, want *SubscriptionStarted", events[0])
	}
	if started.Err == nil {
		t.Error("baseline SubscriptionStarted should carry the failure")
	}
	if started.Revision != 0 {
		t.Errorf("baseline revision = %d, want 0", started.Revision)
	}
	rc := events[len(events)-1].(*ResultChanged)
	if rc.Cause != CauseEnvironment {
		t.Errorf("cause = %q, want %q", rc.Cause, CauseEnvironment)
	}
	if rc.Revision != 1 {
		t.Errorf("ResultChanged revision = %d, want 1", rc.Revision)
	}
	if rc.Delta == nil || rc.Delta.ErrBefore == "" || rc.Delta.ErrAfter != "" {
		t.Fatalf("delta should record an error->success transition: %+v", rc.Delta)
	}
	if len(rc.Delta.Added) == 0 {
		t.Error("successful run should add step-output paths")
	}

	// The now-detectable anomalies surface as AnomalyAppeared events.
	events2 := collectUntil(t, sub.Events(), 60*time.Second, func(ev SubEvent) bool {
		_, ok := ev.(*AnomalyAppeared)
		return ok
	})
	anom := events2[len(events2)-1].(*AnomalyAppeared)
	if anom.Anomaly.Key == "" || anom.Anomaly.Kind == "" {
		t.Errorf("anomaly signal incomplete: %+v", anom.Anomaly)
	}
	if rep, rerr := sub.Current(); rerr != nil || rep == nil || rep.Result == nil {
		t.Errorf("current state after transition: rep=%v err=%v", rep, rerr)
	}
}

// noopCap builds a pure capability no planner will ever pick, used to
// bump the registry generation.
func noopCap(name string) registry.Capability {
	return registry.Capability{
		Name: name, Framework: "noop", Description: "inert test capability",
		Outputs: []registry.Port{{Name: "nothing", Type: registry.TString}},
		Tags:    []string{"inert"},
		Pure:    true,
		Reads:   []string{FacetWorld},
		Impl: func(c *registry.Call) error {
			c.Out["nothing"] = "nothing"
			return nil
		},
	}
}

// TestSubscribeRegistryHeartbeat: a registry generation bump wakes the
// standing query, the re-execution replays entirely from cache, and —
// because nothing changed — the subscriber gets a ResultUnchanged
// heartbeat attributing the wake-up to the registry.
func TestSubscribeRegistryHeartbeat(t *testing.T) {
	env := testEnv(t, true)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sub, err := sys.Subscribe(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	if _, berr := sub.Current(); berr != nil {
		t.Fatalf("baseline failed: %v", berr)
	}

	sys.Registry().MustRegister(noopCap("noop.bump"))
	waitRevision(t, sub, 1)

	events := collectUntil(t, sub.Events(), 60*time.Second, func(ev SubEvent) bool {
		_, ok := ev.(*ResultUnchanged)
		return ok
	})
	ru := events[len(events)-1].(*ResultUnchanged)
	if ru.Cause != CauseRegistry {
		t.Errorf("cause = %q, want %q", ru.Cause, CauseRegistry)
	}
	if ru.StepsRun != 0 || ru.StepsCached == 0 {
		t.Errorf("heartbeat re-execution ran %d steps fresh (%d cached); want a full cache replay",
			ru.StepsRun, ru.StepsCached)
	}
	for _, ev := range events {
		if rc, ok := ev.(*ResultChanged); ok {
			t.Errorf("unexpected ResultChanged: %+v", rc.Delta)
		}
	}
}

// eventSignature renders one event deterministically: everything but
// SubID and Time, which are instance-specific by design.
func eventSignature(ev SubEvent) string {
	m := ev.subMeta()
	switch ev := ev.(type) {
	case *SubscriptionStarted:
		errs := ""
		if ev.Err != nil {
			errs = ev.Err.Error()
		}
		return fmt.Sprintf("started seq=%d rev=%d err=%q", m.Seq, m.Revision, errs)
	case *ResultChanged:
		return fmt.Sprintf("changed seq=%d rev=%d cause=%s delta=%+v", m.Seq, m.Revision, ev.Cause, *ev.Delta)
	case *ResultUnchanged:
		return fmt.Sprintf("unchanged seq=%d rev=%d cause=%s run=%d cached=%d",
			m.Seq, m.Revision, ev.Cause, ev.StepsRun, ev.StepsCached)
	case *AnomalyAppeared:
		return fmt.Sprintf("anomaly+ seq=%d rev=%d %+v", m.Seq, m.Revision, ev.Anomaly)
	case *AnomalyCleared:
		return fmt.Sprintf("anomaly- seq=%d rev=%d %+v", m.Seq, m.Revision, ev.Anomaly)
	case *SubscriptionClosed:
		return fmt.Sprintf("closed seq=%d rev=%d reason=%s", m.Seq, m.Revision, ev.Reason)
	default:
		return fmt.Sprintf("unknown %T", ev)
	}
}

// TestDeltaDeterminism: the same mutation sequence against two
// identically seeded systems yields byte-identical delta-event streams
// (modulo subscription ID and wall-clock time).
func TestDeltaDeterminism(t *testing.T) {
	run := func() []string {
		env := testEnv(t, true) // scenario Seed 5 baseline
		sys, err := NewSystem(env, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sub, err := sys.Subscribe(ctx, queryCS4)
		if err != nil {
			t.Fatal(err)
		}
		if _, berr := sub.Current(); berr != nil {
			t.Fatalf("baseline failed: %v", berr)
		}
		// Serialize the mutations: wait for each revision before the
		// next injection so the two runs see the same wake-ups instead
		// of racing the poke coalescing.
		if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 11}); err != nil {
			t.Fatal(err)
		}
		waitRevision(t, sub, 1)
		if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: 23}); err != nil {
			t.Fatal(err)
		}
		waitRevision(t, sub, 2)
		sub.Close()

		var sigs []string
		for ev := range sub.Events() {
			sigs = append(sigs, eventSignature(ev))
		}
		return sigs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d\nA: %v\nB: %v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d differs:\nA: %s\nB: %s", i, a[i], b[i])
		}
	}
}

// TestSubscriptionHammer: concurrent subscribers over concurrent
// scenario injections and registry registrations. Asserts the -race
// detector stays quiet, every delta is well-formed (no torn diffs),
// event sequencing is monotonic, and — the stale-result check — each
// subscription's final result is exactly what a fresh Ask against the
// final environment/registry state produces.
func TestSubscriptionHammer(t *testing.T) {
	env := testEnv(t, true)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	queries := []string{queryCS1, queryCS3, queryCS4}
	subs := make([]*Subscription, len(queries))
	for i, q := range queries {
		if subs[i], err = sys.Subscribe(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := env.InjectCableFailureScenario(ScenarioConfig{Seed: uint64(40 + i)}); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			sys.Registry().MustRegister(noopCap(fmt.Sprintf("noop.hammer%d", i)))
		}
	}()
	wg.Wait()

	// Convergence: every subscription must settle on the final state.
	// A fresh cache-served Ask at the (now quiescent) final state is
	// the reference result.
	for i, sub := range subs {
		want, wantErr := sys.Ask(ctx, queries[i], AskWithoutCuration())
		deadline := time.Now().Add(120 * time.Second)
		for {
			got, gotErr := sub.Current()
			if renderReport(got, gotErr) == renderReport(want, wantErr) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("subscription %d (%s) stale: current != fresh ask at final state", i, queries[i])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	for i, sub := range subs {
		sub.Close()
		seq := -1
		rev := -1
		var last SubEvent
		for ev := range sub.Events() {
			m := ev.subMeta()
			if m.Seq != seq+1 {
				t.Errorf("sub %d: seq jumped %d -> %d", i, seq, m.Seq)
			}
			seq = m.Seq
			if m.Revision < rev {
				t.Errorf("sub %d: revision went backwards %d -> %d", i, rev, m.Revision)
			}
			rev = m.Revision
			if rc, ok := ev.(*ResultChanged); ok {
				assertDeltaWellFormed(t, rc.Delta)
			}
			last = ev
		}
		if _, ok := last.(*SubscriptionClosed); !ok {
			t.Errorf("sub %d: last event is %T, want *SubscriptionClosed", i, last)
		}
		if sys.Subscription(sub.ID()) != nil {
			t.Errorf("sub %d still in the table after Close", i)
		}
	}
}

// renderReport canonicalizes a report's values + error for equality
// checks.
func renderReport(rep *Report, err error) string {
	s := ""
	if err != nil {
		s = "err=" + err.Error() + ";"
	}
	vals := resultValues(rep)
	paths := make([]string, 0, len(vals))
	for p := range vals {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		s += p + "=" + vals[p] + ";"
	}
	return s
}

// assertDeltaWellFormed checks a delta for tears: sorted, duplicate-
// free path lists with no path in more than one bucket.
func assertDeltaWellFormed(t *testing.T, d *ResultDelta) {
	t.Helper()
	if d == nil {
		t.Fatal("ResultChanged with nil delta")
	}
	seen := map[string]string{}
	check := func(bucket string, paths []string) {
		for i, p := range paths {
			if i > 0 && paths[i-1] >= p {
				t.Errorf("delta %s not sorted/unique at %q", bucket, p)
			}
			if prev, dup := seen[p]; dup {
				t.Errorf("path %q in both %s and %s", p, prev, bucket)
			}
			seen[p] = bucket
		}
	}
	check("added", d.Added)
	check("removed", d.Removed)
	changed := make([]string, len(d.Changed))
	for i, c := range d.Changed {
		changed[i] = c.Path
		if c.Before == c.After {
			t.Errorf("changed path %q has identical before/after", c.Path)
		}
	}
	check("changed", changed)
}

func TestSubscriptionCloseSemantics(t *testing.T) {
	env := testEnv(t, true)
	sys, err := NewSystem(env, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sys.Subscribe(ctx, "   "); err == nil {
		t.Error("empty query accepted")
	}

	// Explicit close.
	sub, err := sys.Subscribe(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	id := sub.ID()
	sub.Close()
	sub.Close() // idempotent
	events := collectUntil(t, sub.Events(), 30*time.Second, func(ev SubEvent) bool {
		_, ok := ev.(*SubscriptionClosed)
		return ok
	})
	closedEv := events[len(events)-1].(*SubscriptionClosed)
	if closedEv.Reason != "closed" {
		t.Errorf("reason = %q, want closed", closedEv.Reason)
	}
	if sys.Subscription(id) != nil {
		t.Error("closed subscription still resolvable")
	}

	// Context cancellation.
	cctx, cancel := context.WithCancel(ctx)
	sub2, err := sys.Subscribe(cctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-sub2.Done()
	events = collectUntil(t, sub2.Events(), 30*time.Second, func(ev SubEvent) bool {
		_, ok := ev.(*SubscriptionClosed)
		return ok
	})
	if got := events[len(events)-1].(*SubscriptionClosed).Reason; got != "context cancelled" {
		t.Errorf("reason = %q, want context cancelled", got)
	}

	// System shutdown closes subscriptions and refuses new ones.
	sub3, err := sys.Subscribe(ctx, queryCS1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	<-sub3.Done()
	events = collectUntil(t, sub3.Events(), 30*time.Second, func(ev SubEvent) bool {
		_, ok := ev.(*SubscriptionClosed)
		return ok
	})
	if got := events[len(events)-1].(*SubscriptionClosed).Reason; got != "system closed" {
		t.Errorf("reason = %q, want system closed", got)
	}
	if _, err := sys.Subscribe(ctx, queryCS1); !errors.Is(err, ErrJobsClosed) {
		t.Errorf("Subscribe after Close: %v, want ErrJobsClosed", err)
	}
	if len(sys.Subscriptions()) != 0 {
		t.Errorf("%d subscriptions survive Close", len(sys.Subscriptions()))
	}
}

// TestCloseRacesSubscribe: a Close concurrent with a Subscribe either
// refuses the subscription or closes it — none outlives the System.
// Without a shared scheduler nothing else would ever stop it.
func TestCloseRacesSubscribe(t *testing.T) {
	env := testEnv(t, false)
	for round := 0; round < 3000; round++ {
		sys, err := NewSystem(env.Clone(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var (
			sub    *Subscription
			subErr error
			wg     sync.WaitGroup
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			sub, subErr = sys.Subscribe(ctx, queryCS1)
		}()
		go func() {
			defer wg.Done()
			sys.Close()
		}()
		wg.Wait()
		if errors.Is(subErr, ErrJobsClosed) {
			continue
		}
		if subErr != nil {
			t.Fatalf("round %d: %v", round, subErr)
		}
		select {
		case <-sub.Done():
		default:
			t.Fatalf("round %d: the subscription outlived Close", round)
		}
	}
}
