package fleetwire

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"arachnet/internal/core"
	"arachnet/internal/fleet"
	"arachnet/internal/netsim"
	"arachnet/internal/registry"
)

// Server is the worker side of the wire: one world shard behind three
// HTTP endpoints.
//
//	POST /v1/execute  — run one shard-local capability request
//	POST /v1/register — coordinator handshake (shard fingerprint +
//	                    registry generation must match)
//	GET  /healthz     — liveness
//	GET  /v1/stats    — worker counters (requests, shard inventory)
//
// The server derives its shard exactly the way the coordinator does —
// netsim.PartitionWorld over the same generated world with the same
// shard count — so shard contents agree by construction, and the
// handshake fingerprint proves it. Execution reuses fleet.Worker,
// including its per-shard LRU step cache keyed by the coordinator's
// step fingerprints.
type Server struct {
	env    *core.Environment
	reg    *registry.Registry
	worker *fleet.Worker
	hs     handshake
	mux    *http.ServeMux

	requests  atomic.Uint64
	registers atomic.Uint64
}

// NewServer builds a worker server owning shard index of shards over
// env's world, executing against reg (nil means the builtin catalog).
// cacheEntries bounds the worker's step cache (<= 0 disables it).
func NewServer(env *core.Environment, reg *registry.Registry, shards, index, cacheEntries int) (*Server, error) {
	if env == nil {
		return nil, fmt.Errorf("fleetwire: server needs an environment")
	}
	if reg == nil {
		reg = core.BuiltinRegistry()
	}
	part, err := netsim.PartitionWorld(env.World, shards)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("fleetwire: shard index %d out of range [0,%d)", index, shards)
	}
	fp, err := part.ShardFingerprint(index)
	if err != nil {
		return nil, err
	}
	s := &Server{
		env:    env,
		reg:    reg,
		worker: fleet.NewWorker(index, part.Shards[index], cacheEntries),
		hs: handshake{
			Index:              index,
			Shards:             shards,
			ShardFingerprint:   fp,
			RegistryGeneration: reg.Generation(),
		},
		mux: http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/execute", s.handleExecute)
	s.mux.HandleFunc("POST /v1/register", s.handleRegister)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// Handshake describes the server's identity (for logs and tests).
func (s *Server) Handshake() string { return s.hs.String() }

// Worker exposes the underlying shard worker (stats, tests).
func (s *Server) Worker() *fleet.Worker { return s.worker }

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Typed-error backstop: a handler bug must surface as a wire
	// error, not a dropped connection. Capability panics are already
	// contained inside fleet.Worker.Execute.
	defer func() {
		if rec := recover(); rec != nil {
			writeError(w, CodeExecutionFailed, "worker panicked: %v", rec)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req executeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, CodeBadRequest, "decode request: %v", err)
		return
	}
	if req.Cap == "" {
		writeError(w, CodeBadRequest, "request names no capability")
		return
	}
	// Worker-side validation: the capability must resolve here and the
	// inputs must decode — a request the worker cannot serve gets a
	// typed refusal the coordinator won't retry.
	capb, err := s.reg.Get(req.Cap)
	if err != nil {
		writeError(w, CodeUnknownCapability, "capability %q not in worker registry", req.Cap)
		return
	}
	in, err := core.DecodePortValues(req.In)
	if err != nil {
		writeError(w, CodeBadInput, "capability %q: %v", req.Cap, err)
		return
	}
	resp, err := s.worker.Execute(r.Context(), fleet.Request{
		Cap:        req.Cap,
		Capability: capb,
		In:         in,
		Env:        s.env,
		Key:        req.Key,
	})
	if err != nil {
		writeError(w, CodeExecutionFailed, "%v", err)
		return
	}
	out, err := core.EncodePortValues(resp.Out)
	if err != nil {
		writeError(w, CodeUnencodableOutput, "capability %q: %v", req.Cap, err)
		return
	}
	writeJSON(w, http.StatusOK, executeResponse{Out: out, CacheHit: resp.CacheHit})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	s.registers.Add(1)
	var got handshake
	if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
		writeError(w, CodeBadRequest, "decode handshake: %v", err)
		return
	}
	if !s.hs.matches(got) {
		writeError(w, CodeHandshakeMismatch,
			"coordinator expects %s, worker is %s", got, s.hs)
		return
	}
	writeJSON(w, http.StatusOK, s.hs)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"handshake": s.hs,
		"requests":  s.requests.Load(),
		"registers": s.registers.Load(),
		"shard":     s.worker.Stats(),
	})
}
