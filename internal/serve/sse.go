// Server-sent events: GET /v1/jobs/{id}/events streams a job's typed
// event log as SSE frames. The stream replays from the first event
// (late subscribers see full history — the job's event log is the
// source of truth), then follows live and ends after the terminal
// "done" frame. A client that disconnects mid-stream cancels the job
// unless it subscribed with ?detach=1, mapping dropped consumers onto
// job cancellation so abandoned work stops consuming workers. The
// subscription stream (subscriptions.go) is written by the same loop,
// streamSSE.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"arachnet/internal/core"
)

// eventJSON is the wire form of one core.Event. Type takes the values
// stage_started, stage_completed, step_started, step_completed,
// step_failed, curation_promoted and done; the remaining fields are
// populated per type and omitted otherwise. Stage artifacts are not
// serialized — the terminal done frame carries the report summary.
type eventJSON struct {
	Type       string          `json:"type"`
	Seq        int             `json:"seq"`
	Time       time.Time       `json:"time"`
	Stage      string          `json:"stage,omitempty"`
	Step       string          `json:"step,omitempty"`
	Capability string          `json:"capability,omitempty"`
	DurationUS int64           `json:"duration_us,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	Promotion  string          `json:"promotion,omitempty"`
	Support    int             `json:"support,omitempty"`
	Error      string          `json:"error,omitempty"`
	Report     json.RawMessage `json:"report,omitempty"`
}

// encodeEvent maps one typed pipeline event to its wire form.
func encodeEvent(ev core.Event) eventJSON {
	out := eventJSON{}
	switch ev := ev.(type) {
	case *core.StageStarted:
		out.Type, out.Stage = "stage_started", ev.Stage
		out.Seq, out.Time = ev.Seq, ev.Time
	case *core.StageCompleted:
		out.Type, out.Stage, out.Cached = "stage_completed", ev.Stage, ev.Cached
		out.Seq, out.Time = ev.Seq, ev.Time
	case *core.StepStarted:
		out.Type, out.Step, out.Capability = "step_started", ev.Step, ev.Capability
		out.Seq, out.Time = ev.Seq, ev.Time
	case *core.StepCompleted:
		out.Type, out.Step, out.Capability = "step_completed", ev.Step, ev.Capability
		out.DurationUS, out.Cached = ev.Duration.Microseconds(), ev.Cached
		out.Seq, out.Time = ev.Seq, ev.Time
	case *core.StepFailed:
		out.Type, out.Step, out.Capability = "step_failed", ev.Step, ev.Capability
		out.DurationUS, out.Error = ev.Duration.Microseconds(), ev.Err.Error()
		out.Seq, out.Time = ev.Seq, ev.Time
	case *core.CurationPromoted:
		out.Type = "curation_promoted"
		out.Promotion, out.Support = ev.Promotion.Capability.Name, ev.Promotion.Support
		out.Seq, out.Time = ev.Seq, ev.Time
	case *core.Done:
		out.Type = "done"
		out.Report = summaryRaw(ev.Report)
		if ev.Err != nil {
			out.Error = ev.Err.Error()
		}
		out.Seq, out.Time = ev.Seq, ev.Time
	default:
		// Future event types still produce a frame; consumers skip
		// types they don't know.
		out.Type = fmt.Sprintf("%T", ev)
	}
	return out
}

// handleJobEvents streams one job's event log as SSE.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	// A dropped consumer that did not detach has lost interest in the
	// result: cancel the job (idempotent; a no-op on finished jobs).
	streamSSE(w, r, j.Events, encodeEvent, j.Cancel)
}

// sseFrameType is a wire frame that names its SSE event type.
type sseFrameType interface{ eventType() string }

func (f eventJSON) eventType() string    { return f.Type }
func (f subEventJSON) eventType() string { return f.Type }

// streamSSE is the one SSE write loop: it opens the event stream and
// writes each event as an "event: <type>" frame carrying the encoded
// JSON, flushing per frame, until the stream closes. If the client
// goes away first, it calls drop unless the request asked for
// ?detach=1.
func streamSSE[E any, F sseFrameType](w http.ResponseWriter, r *http.Request, open func() <-chan E, encode func(E) F, drop func()) {
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

	events := open()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			frame := encode(ev)
			data, err := json.Marshal(frame)
			if err != nil {
				data = []byte(fmt.Sprintf(`{"type":%q,"error":"unserializable event"}`, frame.eventType()))
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", frame.eventType(), data)
			flusher.Flush()
		case <-r.Context().Done():
			if !detach {
				drop()
			}
			return
		}
	}
}
