package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/geo"
	"arachnet/internal/nautilus"
)

// workloads names every traffic mix. BENCHMARK.json gates on warm and
// novel; curated and monitor run with the same command (see README.md).
var workloads = []string{"warm", "novel", "curated", "monitor"}

// mix runs one workload's traffic against one deployment.
type mix interface {
	// clients is the closed-loop client count.
	clients() int
	// warmUp brings a fresh deployment to the workload's steady state.
	// It is part of set-up.
	warmUp() error
	// inputs is what the traced run feeds each layer's entry points.
	inputs() layerInputs
	// op runs one timed operation for client c.
	op(c int, rec *recorder)
	// finish checks what can only be checked after the timed phase.
	finish(rec *recorder) error
	// close releases what the mix started; the deployment stays up.
	close()
}

func newMix(workload string, d *deployment, ref *reference, seed uint64) (mix, error) {
	switch workload {
	case "warm":
		return newAskMix(d, ref, seed, false, false), nil
	case "novel":
		return newAskMix(d, ref, seed, true, false), nil
	case "curated":
		return newAskMix(d, ref, seed, false, true), nil
	case "monitor":
		return newMonitorMix(d, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

// askMix serves the three POST /v1/ask workloads. warm and curated
// round-robin over the case studies in a seeded order, without and
// with curation; novel asks generated texts without curation. Every
// answer is checked against the curation-off reference, so on curated
// the answers curation changes count as failed ops.
type askMix struct {
	d      *deployment
	ref    *reference
	curate bool
	gen    *generator // novel only
	seen   []atomic.Bool
	fresh  atomic.Int64 // novel ops that asked a parameter set first
	order  []int
	bodies [][]byte
	want   []*expected // by index into caseStudies
	next   [maxClients]int
	bufs   [maxClients]bytes.Buffer
}

func newAskMix(d *deployment, ref *reference, seed uint64, novel, curate bool) *askMix {
	a := &askMix{d: d, ref: ref, curate: curate, want: ref.caseStudy}
	r := rand.New(rand.NewPCG(seed, 0x6f72646572))
	a.order = r.Perm(len(caseStudies))
	for _, q := range caseStudies {
		a.bodies = append(a.bodies, askBody(q, curate))
	}
	if novel {
		a.gen = newGenerator(ref.sets, seed)
		a.seen = make([]atomic.Bool, len(ref.sets))
	}
	return a
}

func (a *askMix) clients() int { return maxClients }

// warmUp asks every case study once; on curated it keeps asking them,
// in order, until a full pass promotes nothing.
func (a *askMix) warmUp() error {
	var buf bytes.Buffer
	const maxRounds = 64
	for range maxRounds {
		promoted := false
		for i, body := range a.bodies {
			_, status, err := a.d.post(body, &buf)
			if err != nil {
				return fmt.Errorf("warm-up case study %d: %w", i+1, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up case study %d: status %d: %s", i+1, status, bytes.TrimSpace(buf.Bytes()))
			}
			var rep struct {
				Promotions []string `json:"promotions"`
			}
			if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
				return fmt.Errorf("warm-up case study %d: decode: %w", i+1, err)
			}
			promoted = promoted || len(rep.Promotions) > 0
		}
		if !a.curate || !promoted {
			return nil
		}
	}
	return fmt.Errorf("warm-up: curation still promoting after %d rounds", maxRounds)
}

func (a *askMix) op(c int, rec *recorder) {
	var body []byte
	var want *expected
	if a.gen != nil {
		text, set, ok := a.gen.take()
		if !ok {
			rec.attempted++
			rec.fail("novel texts exhausted")
			return
		}
		body, want = askBody(text, false), a.ref.params[set]
		if !a.seen[set].Swap(true) {
			a.fresh.Add(1)
		}
	} else {
		cs := a.order[(a.next[c]+c)%len(a.order)]
		a.next[c]++
		body, want = a.bodies[cs], a.want[cs]
	}
	buf := &a.bufs[c]
	lat, status, err := a.d.post(body, buf)
	rec.attempted++
	switch {
	case err != nil:
		rec.fail(err.Error())
		return
	case status != http.StatusOK:
		rec.fail(fmt.Sprintf("status %d: %.200s", status, bytes.TrimSpace(buf.Bytes())))
		return
	}
	rec.sample(lat)
	if !want.matches(buf.Bytes()) {
		rec.mismatched++
		rec.fail(fmt.Sprintf("outputs differ from the reference: %.200s", body))
	}
	if rec.tr != nil {
		rec.tr.addResponse(buf.Bytes())
	}
}

// inputs gives the planning layers the case studies, or on novel a
// sample of unused texts, and serves every probed call an unused text
// on novel so each one misses the plan cache as the workload's ops do.
func (a *askMix) inputs() layerInputs {
	in := layerInputs{sample: caseStudies, capTexts: caseStudies, curate: a.curate}
	i := 0
	in.next = func() string {
		i++
		return caseStudies[i%len(caseStudies)]
	}
	if a.gen != nil {
		in.freshRatio = float64(a.fresh.Load()) / float64(a.gen.next.Load())
		in.capTexts = nil
		for _, ps := range a.ref.sets {
			in.capTexts = append(in.capTexts, ps.core)
		}
		in.sample = nil
		for len(in.sample) < 64 {
			text, _, ok := a.gen.take()
			if !ok {
				break
			}
			in.sample = append(in.sample, text)
		}
		in.next = func() string {
			if text, _, ok := a.gen.take(); ok {
				return text
			}
			i++
			return in.sample[i%len(in.sample)]
		}
	}
	return in
}

func (a *askMix) finish(*recorder) error { return nil }
func (a *askMix) close()                 {}

// monitorMix runs the four case studies as standing subscriptions
// on the tenant's System, so every re-execution goes through Submit and
// Job.Wait on the shared scheduler. One op is one injection round: a
// scenario injection on the tenant environment, then every
// subscription's event for the new revision. Each delivery is one
// latency sample, from the start of the injection to the event.
type monitorMix struct {
	d      *deployment
	rng    *rand.Rand
	cables []nautilus.CableID
	ctx    context.Context
	cancel context.CancelFunc
	subs   []*core.Subscription
	events []<-chan core.SubEvent
	round  int
}

func newMonitorMix(d *deployment, seed uint64) (*monitorMix, error) {
	m := &monitorMix{d: d, rng: rand.New(rand.NewPCG(seed, 0x6d6f6e69746f72))}
	env := d.sys.Environment()
	for _, c := range env.Catalog.Between(geo.Europe, geo.Asia) {
		if len(env.CrossMap.LinksOn(c.ID)) > 0 {
			m.cables = append(m.cables, c.ID)
		}
	}
	if len(m.cables) == 0 {
		return nil, errors.New("monitor: no Europe-Asia cable carries links")
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	return m, nil
}

func (m *monitorMix) clients() int { return 1 }

func (m *monitorMix) inputs() layerInputs {
	i := 0
	return layerInputs{sample: caseStudies, capTexts: caseStudies, next: func() string {
		i++
		return caseStudies[i%len(caseStudies)]
	}}
}

// warmUp subscribes every case study; each baseline must succeed.
func (m *monitorMix) warmUp() error {
	for i, q := range caseStudies {
		sub, err := m.d.sys.Subscribe(m.ctx, q)
		if err != nil {
			return fmt.Errorf("subscribe case study %d: %w", i+1, err)
		}
		if _, err := sub.Current(); err != nil {
			return fmt.Errorf("subscription baseline, case study %d: %w", i+1, err)
		}
		m.subs = append(m.subs, sub)
		m.events = append(m.events, sub.Events())
	}
	return nil
}

func (m *monitorMix) op(_ int, rec *recorder) {
	m.round++
	rec.attempted++
	cable := m.cables[(m.round-1)%len(m.cables)]
	start := time.Now()
	err := m.d.sys.Environment().InjectCableFailureScenario(core.ScenarioConfig{
		Cable: cable, Seed: m.rng.Uint64(),
	})
	injected := time.Since(start)
	if err != nil {
		rec.fail(fmt.Sprintf("inject %s: %v", cable, err))
		return
	}
	if rec.tr != nil {
		rec.tr.injects++
		rec.tr.injectSum += injected
	}
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	var failure string
	for i, ch := range m.events {
		ev, err := awaitRevision(ch, m.round, timeout.C)
		if err != nil {
			rec.fail(fmt.Sprintf("round %d, case study %d: %v", m.round, i+1, err))
			return
		}
		rec.sample(ev.meta().Time.Sub(start))
		rep, err := m.subs[i].Current()
		if err != nil && failure == "" {
			failure = fmt.Sprintf("round %d, case study %d: %v", m.round, i+1, err)
		}
		if rec.tr != nil {
			rec.tr.addDelivery(ev, rep, injected, start)
		}
	}
	if failure != "" {
		rec.fail(failure)
	}
}

// delivery is a subscription's event for one revision.
type delivery struct {
	changed   *core.ResultChanged
	unchanged *core.ResultUnchanged
}

func (d delivery) meta() core.SubEventMeta {
	if d.changed != nil {
		return d.changed.SubEventMeta
	}
	return d.unchanged.SubEventMeta
}

// steps returns how many steps the re-execution ran and replayed.
func (d delivery) steps() (run, cached int) {
	if d.changed != nil {
		return d.changed.Delta.StepsRun, d.changed.Delta.StepsCached
	}
	return d.unchanged.StepsRun, d.unchanged.StepsCached
}

// awaitRevision reads ch until the re-execution event for revision
// arrives, skipping anomaly events and earlier revisions.
func awaitRevision(ch <-chan core.SubEvent, revision int, timeout <-chan time.Time) (delivery, error) {
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return delivery{}, errors.New("subscription closed")
			}
			switch ev := ev.(type) {
			case *core.ResultChanged:
				if ev.Revision == revision {
					return delivery{changed: ev}, nil
				}
			case *core.ResultUnchanged:
				if ev.Revision == revision {
					return delivery{unchanged: ev}, nil
				}
			case *core.SubscriptionClosed:
				return delivery{}, fmt.Errorf("subscription closed: %s", ev.Reason)
			}
		case <-timeout:
			return delivery{}, fmt.Errorf("no event for revision %d within %v", revision, opTimeout)
		}
	}
}

// finish compares every subscription's final outputs with a no-cache
// ask on a clone of the final environment.
func (m *monitorMix) finish(rec *recorder) error {
	sys, err := core.NewSystem(m.d.sys.Environment().Clone(), core.BuiltinRegistry())
	if err != nil {
		return err
	}
	defer sys.Close()
	for i, sub := range m.subs {
		want, err := noCacheOutputs(sys, caseStudies[i])
		if err != nil {
			return fmt.Errorf("monitor reference, case study %d: %w", i+1, err)
		}
		rep, err := sub.Current()
		if err != nil {
			return fmt.Errorf("monitor final state, case study %d: %w", i+1, err)
		}
		got, err := canonicalOutputs(rep.Result.Outputs)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			rec.mismatched++
			rec.fail(fmt.Sprintf("case study %d: final outputs differ from a no-cache ask", i+1))
		}
	}
	return nil
}

func (m *monitorMix) close() {
	m.cancel()
	for _, sub := range m.subs {
		sub.Close()
	}
}
