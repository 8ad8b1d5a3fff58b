// HTTP handlers: request decoding, tenant resolution, and the mapping
// from serving-layer errors to status codes (queue shed → 429 with
// Retry-After, closed tier → 503, pipeline failure → 422).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"arachnet/internal/core"
)

// tenantHeader names the tenant a request addresses. Requests may
// instead (or additionally) authenticate with "Authorization: Bearer
// <token>"; with a single configured tenant the header is optional.
const tenantHeader = "X-Arachnet-Tenant"

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/ask", s.handleAsk)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.subscriptionRoutes()
}

// askRequest is the body of POST /v1/ask and POST /v1/jobs.
type askRequest struct {
	Query string `json:"query"`
	// TimeoutMS bounds the pipeline's wall-clock time; 0 uses the
	// server default, capped by the server maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the tenant's plan and step caches for this call.
	NoCache bool `json:"no_cache,omitempty"`
	// NoCuration disables post-run registry evolution for this call.
	NoCuration bool `json:"no_curation,omitempty"`
	// Parallelism bounds concurrent workflow steps (0 = default).
	Parallelism int `json:"parallelism,omitempty"`
	// Full returns the complete Report instead of the summary view.
	Full bool `json:"full,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// jsonContentType is the Content-Type value every JSON response
// shares: header values are only ever read or replaced, never written
// in place.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// summaryBufs recycles the buffers /v1/ask bodies are built in;
// buffers grown past maxPooledSummary are left to the collector.
var summaryBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

const maxPooledSummary = 256 << 10

// writeSummary answers a /v1/ask with rep's summary: 200 and the
// summary itself when err is nil, 422 and {"error":...,"report":...}
// otherwise. The body is built in a pooled buffer and written in one
// Write with its Content-Length.
func writeSummary(w http.ResponseWriter, rep *core.Report, err error) {
	bp := summaryBufs.Get().(*[]byte)
	b := (*bp)[:0]
	status := http.StatusOK
	if err == nil {
		b = appendSummary(b, rep)
	} else {
		status = http.StatusUnprocessableEntity
		b = append(b, `{"error":`...)
		b = appendString(b, err.Error())
		if rep != nil {
			b = append(b, `,"report":`...)
			b = appendSummary(b, rep)
			b = b[:len(b)-1] // the summary's newline
		}
		b = append(b, "}\n"...)
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledSummary {
		*bp = b[:0]
		summaryBufs.Put(bp)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// bearer extracts a bearer token from the Authorization header.
func bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
		return strings.TrimSpace(tok)
	}
	return ""
}

// resolveTenant picks the tenant a request addresses — by header, by
// token, or the single configured tenant — without enforcing auth.
func (s *Server) resolveTenant(r *http.Request) *Tenant {
	if name := r.Header.Get(tenantHeader); name != "" {
		return s.tenants[name]
	}
	if tok := bearer(r); tok != "" {
		return s.byToken[tok]
	}
	return s.single
}

// tenant resolves and authenticates the request's tenant, writing the
// error response itself when it fails.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	t := s.resolveTenant(r)
	if t == nil {
		if name := r.Header.Get(tenantHeader); name != "" {
			httpError(w, http.StatusNotFound, "unknown tenant %q", name)
		} else {
			httpError(w, http.StatusBadRequest, "tenant required: set %s or a bearer token", tenantHeader)
		}
		return nil, false
	}
	if t.cfg.Token != "" && bearer(r) != t.cfg.Token {
		httpError(w, http.StatusUnauthorized, "tenant %q requires a bearer token", t.cfg.Name)
		return nil, false
	}
	return t, true
}

// askOptions appends a request's AskOptions to dst, after the
// server-wide CallOptions. handleAsk passes it an array on its stack,
// which stays there since Ask keeps no option.
func (s *Server) askOptions(dst []core.AskOption, req askRequest) []core.AskOption {
	opts := append(dst, s.cfg.CallOptions...)
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout > 0 {
		opts = append(opts, core.AskTimeout(timeout))
	}
	if req.NoCache {
		opts = append(opts, core.AskNoCache())
	}
	if req.NoCuration {
		opts = append(opts, core.AskWithoutCuration())
	}
	if req.Parallelism > 0 {
		opts = append(opts, core.AskParallelism(req.Parallelism))
	}
	return opts
}

// submitError maps admission failures (Submit, or Ask on the shared
// scheduler) to HTTP. Shed load answers 429 with a Retry-After hint so
// well-behaved clients back off.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrJobQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, core.ErrJobsClosed):
		httpError(w, http.StatusServiceUnavailable, "serving tier is shutting down")
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleAsk serves a synchronous query on the request's goroutine.
// The tenant System's Ask takes a slot on the shared scheduler, so
// synchronous callers compete under the same admission control and
// weighted-fair order as submitted jobs without becoming jobs
// themselves. Client disconnect cancels the run, queued or mid-flight,
// through the request context.
func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	req, ok := decodeAsk(w, r)
	if !ok {
		return
	}
	var opts [4]core.AskOption
	rep, err := t.sys.Ask(r.Context(), req.Query, s.askOptions(opts[:0], req)...)
	if r.Context().Err() != nil {
		// Client gone; the run was cancelled through its context and
		// nobody is left to read a response.
		return
	}
	if errors.Is(err, core.ErrJobQueueFull) || errors.Is(err, core.ErrJobsClosed) {
		submitError(w, err)
		return
	}
	if err == nil && req.Full {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	writeSummary(w, rep, err)
}

// handleSubmit enqueues an asynchronous job. The job is parented on
// the server (not the request), so it survives the submitting
// connection and is observable through /v1/jobs/{id}/events.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	req, ok := decodeAsk(w, r)
	if !ok {
		return
	}
	j, err := t.sys.Submit(s.jobCtx, req.Query, s.askOptions(nil, req)...)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Summary())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	jobs := t.sys.Jobs()
	out := make([]core.JobSummary, len(jobs))
	for i, j := range jobs {
		out[i] = j.Summary()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// findJob resolves {id} within the tenant's own job table — tenants
// can only ever see and act on their own jobs.
func (s *Server) findJob(w http.ResponseWriter, r *http.Request, t *Tenant) (*core.Job, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil, false
	}
	for _, j := range t.sys.Jobs() {
		if j.ID() == id {
			return j, true
		}
	}
	httpError(w, http.StatusNotFound, "no job %d", id)
	return nil, false
}

type jobResponse struct {
	core.JobSummary
	Report json.RawMessage `json:"report,omitempty"`
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	resp := jobResponse{JobSummary: j.Summary()}
	if resp.State == core.JobDone || resp.State == core.JobCancelled {
		if rep, err := j.Wait(r.Context()); err == nil || rep != nil {
			resp.Report = summaryRaw(rep)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	j, ok := s.findJob(w, r, t)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Summary())
}

// statsResponse is the body of GET /v1/stats.
type statsResponse struct {
	Queue   core.QueueStats        `json:"queue"`
	Tenants map[string]tenantStats `json:"tenants"`
}

type tenantStats struct {
	Cache      core.CacheStats `json:"cache"`
	Registry   int             `json:"registry_size"`
	Generation uint64          `json:"registry_generation"`
	Promotions int             `json:"promotions"`
	// Jobs counts tracked POST /v1/jobs submissions; a /v1/ask leaves
	// no job record.
	Jobs int `json:"jobs_tracked"`
}

// handleStats reports queue and cache state. An authenticated (or
// header-addressed) request sees its own tenant; an unaddressed
// request on an open server (no tenant tokens) sees every tenant —
// the operator dashboard view.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Queue: s.sched.Stats(), Tenants: map[string]tenantStats{}}
	if t := s.resolveTenant(r); t != nil {
		if t.cfg.Token != "" && bearer(r) != t.cfg.Token {
			httpError(w, http.StatusUnauthorized, "tenant %q requires a bearer token", t.cfg.Name)
			return
		}
		resp.Tenants[t.cfg.Name] = s.tenantStats(t)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if s.anyAuth {
		httpError(w, http.StatusUnauthorized, "stats require tenant credentials")
		return
	}
	for name, t := range s.tenants {
		resp.Tenants[name] = s.tenantStats(t)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) tenantStats(t *Tenant) tenantStats {
	return tenantStats{
		Cache:      t.sys.CacheStats(),
		Registry:   t.sys.Registry().Size(),
		Generation: t.sys.Registry().Generation(),
		Promotions: len(t.sys.Promotions()),
		Jobs:       len(t.sys.Jobs()),
	}
}
