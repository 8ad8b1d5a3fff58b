// Continuous monitoring over HTTP: standing-query subscriptions and
// the per-tenant scenario-injection admin endpoint that drives them.
//
// POST /v1/subscriptions registers a standing query (the baseline run
// executes before the response, admission-controlled like any served
// call). GET /v1/subscriptions/{id}/events streams the subscription's
// typed delta events as SSE, replaying from the first event; a client
// that disconnects closes the subscription unless it subscribed with
// ?detach=1, mirroring the job-events contract. POST
// /v1/admin/scenario injects a cable-failure scenario into the
// tenant's own environment clone — the epoch bump wakes exactly that
// tenant's subscriptions.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"arachnet/internal/core"
	"arachnet/internal/nautilus"
)

func (s *Server) subscriptionRoutes() {
	s.mux.HandleFunc("POST /v1/subscriptions", s.handleSubscribe)
	s.mux.HandleFunc("GET /v1/subscriptions", s.handleListSubscriptions)
	s.mux.HandleFunc("GET /v1/subscriptions/{id}", s.handleGetSubscription)
	s.mux.HandleFunc("DELETE /v1/subscriptions/{id}", s.handleCloseSubscription)
	s.mux.HandleFunc("GET /v1/subscriptions/{id}/events", s.handleSubscriptionEvents)
	s.mux.HandleFunc("POST /v1/admin/scenario", s.handleInjectScenario)
}

// subscriptionJSON is the wire summary of one standing query.
type subscriptionJSON struct {
	ID       uint64 `json:"id"`
	Query    string `json:"query"`
	Revision int    `json:"revision"`
	// Error is the current result's error state (a standing query may
	// legitimately sit in a failed state until data arrives).
	Error string `json:"error,omitempty"`
}

func subSummary(sub *core.Subscription) subscriptionJSON {
	out := subscriptionJSON{ID: sub.ID(), Query: sub.Query(), Revision: sub.Revision()}
	if _, err := sub.Current(); err != nil {
		out.Error = err.Error()
	}
	return out
}

// handleSubscribe registers a standing query for the tenant. The
// subscription is parented on the server, not the request: it lives
// until DELETE, a consuming stream disconnects without ?detach=1, or
// server shutdown.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	req, ok := decodeAsk(w, r)
	if !ok {
		return
	}
	sub, err := t.sys.Subscribe(s.jobCtx, req.Query, s.askOptions(req)...)
	if err != nil {
		if errors.Is(err, core.ErrJobsClosed) {
			httpError(w, http.StatusServiceUnavailable, "serving tier is shutting down")
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, subSummary(sub))
}

func (s *Server) handleListSubscriptions(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	subs := t.sys.Subscriptions()
	out := make([]subscriptionJSON, len(subs))
	for i, sub := range subs {
		out[i] = subSummary(sub)
	}
	writeJSON(w, http.StatusOK, map[string]any{"subscriptions": out})
}

// findSubscription resolves {id} within the tenant's own subscription
// table — like jobs, tenants can only see and act on their own.
func (s *Server) findSubscription(w http.ResponseWriter, r *http.Request, t *Tenant) (*core.Subscription, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad subscription id %q", r.PathValue("id"))
		return nil, false
	}
	sub := t.sys.Subscription(id)
	if sub == nil {
		httpError(w, http.StatusNotFound, "no subscription %d", id)
		return nil, false
	}
	return sub, true
}

func (s *Server) handleGetSubscription(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	sub, ok := s.findSubscription(w, r, t)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, subSummary(sub))
}

func (s *Server) handleCloseSubscription(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	sub, ok := s.findSubscription(w, r, t)
	if !ok {
		return
	}
	summary := subSummary(sub)
	sub.Close()
	writeJSON(w, http.StatusOK, summary)
}

// subEventJSON is the wire form of one core.SubEvent. Type takes the
// values subscription_started, result_changed, result_unchanged,
// anomaly_appeared, anomaly_cleared and subscription_closed; the
// remaining fields are populated per type.
type subEventJSON struct {
	Type        string              `json:"type"`
	Seq         int                 `json:"seq"`
	Revision    int                 `json:"revision"`
	Time        time.Time           `json:"time"`
	Cause       string              `json:"cause,omitempty"`
	Delta       *core.ResultDelta   `json:"delta,omitempty"`
	Anomaly     *core.AnomalySignal `json:"anomaly,omitempty"`
	StepsRun    int                 `json:"steps_run,omitempty"`
	StepsCached int                 `json:"steps_cached,omitempty"`
	Reason      string              `json:"reason,omitempty"`
	Error       string              `json:"error,omitempty"`
	Report      json.RawMessage     `json:"report,omitempty"`
}

// encodeSubEvent maps one typed subscription event to its wire form.
func encodeSubEvent(ev core.SubEvent) subEventJSON {
	out := subEventJSON{}
	stamp := func(m core.SubEventMeta) {
		out.Seq, out.Revision, out.Time = m.Seq, m.Revision, m.Time
	}
	switch ev := ev.(type) {
	case *core.SubscriptionStarted:
		out.Type = "subscription_started"
		out.Report = summaryRaw(ev.Report)
		if ev.Err != nil {
			out.Error = ev.Err.Error()
		}
		stamp(ev.SubEventMeta)
	case *core.ResultChanged:
		out.Type, out.Cause, out.Delta = "result_changed", ev.Cause, ev.Delta
		stamp(ev.SubEventMeta)
	case *core.ResultUnchanged:
		out.Type, out.Cause = "result_unchanged", ev.Cause
		out.StepsRun, out.StepsCached = ev.StepsRun, ev.StepsCached
		stamp(ev.SubEventMeta)
	case *core.AnomalyAppeared:
		a := ev.Anomaly
		out.Type, out.Anomaly = "anomaly_appeared", &a
		stamp(ev.SubEventMeta)
	case *core.AnomalyCleared:
		a := ev.Anomaly
		out.Type, out.Anomaly = "anomaly_cleared", &a
		stamp(ev.SubEventMeta)
	case *core.SubscriptionClosed:
		out.Type, out.Reason = "subscription_closed", ev.Reason
		stamp(ev.SubEventMeta)
	default:
		out.Type = fmt.Sprintf("%T", ev)
	}
	return out
}

// handleSubscriptionEvents streams one subscription's delta-event log
// as SSE: full replay from SubscriptionStarted, then live until the
// terminal subscription_closed frame. A disconnecting consumer closes
// the subscription unless it asked for ?detach=1 — a dropped monitor
// should stop burning re-executions, but a detached subscription keeps
// watching for the next consumer.
func (s *Server) handleSubscriptionEvents(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	sub, ok := s.findSubscription(w, r, t)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	detach := r.URL.Query().Get("detach") != ""

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	events := sub.Events()
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			frame := encodeSubEvent(ev)
			data, err := json.Marshal(frame)
			if err != nil {
				data = []byte(fmt.Sprintf(`{"type":%q,"error":"unserializable event"}`, frame.Type))
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", frame.Type, data)
			flusher.Flush()
		case <-r.Context().Done():
			if !detach {
				sub.Close()
			}
			return
		}
	}
}

// scenarioRequest is the body of POST /v1/admin/scenario; all fields
// are optional (zero values take the library defaults — see
// core.ScenarioConfig).
type scenarioRequest struct {
	Cable         string `json:"cable,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
	DaysBeforeNow int    `json:"days_before_now,omitempty"`
	WindowDays    int    `json:"window_days,omitempty"`
	ProbePairs    int    `json:"probe_pairs,omitempty"`
}

// handleInjectScenario injects a cable-failure scenario into the
// tenant's environment clone. The epoch bump pokes the tenant's
// standing queries — and only the tenant's: other tenants' clones
// keep their own timelines.
func (s *Server) handleInjectScenario(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req scenarioRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	env := t.sys.Environment()
	err := env.InjectCableFailureScenario(core.ScenarioConfig{
		Cable:         nautilus.CableID(req.Cable),
		Seed:          req.Seed,
		DaysBeforeNow: req.DaysBeforeNow,
		WindowDays:    req.WindowDays,
		ProbePairs:    req.ProbePairs,
	})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch": env.Epoch(),
		"data":  env.Data(),
	})
}
