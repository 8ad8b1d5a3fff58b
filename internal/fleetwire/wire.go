package fleetwire

import (
	"encoding/json"
	"fmt"
	"net/http"

	"arachnet/internal/core"
)

// Wire error codes. A worker answers every failure with a typed
// wireError body — never a panic, never a bare 500 — so the
// coordinator can tell "this worker cannot serve this request" (don't
// retry, fail over) from transport trouble (retry, then fail over).
const (
	// CodeBadRequest: the request body was not a valid execute request.
	CodeBadRequest = "bad_request"
	// CodeUnknownCapability: Cap did not resolve against the worker's
	// registry replica.
	CodeUnknownCapability = "unknown_capability"
	// CodeBadInput: an input value failed to decode (see
	// core.DecodePortValues).
	CodeBadInput = "bad_input"
	// CodeExecutionFailed: the capability ran and returned an error
	// (or panicked; panics are contained by the worker).
	CodeExecutionFailed = "execution_failed"
	// CodeUnencodableOutput: the capability produced a value the
	// port-value table cannot put on the wire.
	CodeUnencodableOutput = "unencodable_output"
	// CodeHandshakeMismatch: registration was refused because the
	// worker's shard fingerprint or registry generation disagrees with
	// the coordinator's.
	CodeHandshakeMismatch = "handshake_mismatch"
)

// wireError is the typed error body of every non-2xx worker response.
type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *wireError) Error() string {
	return fmt.Sprintf("fleetwire: %s: %s", e.Code, e.Message)
}

// httpStatus maps an error code to its transport status.
func httpStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeBadInput:
		return http.StatusBadRequest
	case CodeUnknownCapability:
		return http.StatusNotFound
	case CodeHandshakeMismatch:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// executeRequest is the wire form of a fleet.Request: exactly the
// fields the transport contract says cross a process boundary (see
// fleet.Request's serialization-boundary doc). Capability and Env
// deliberately have no wire representation. Values travel as core's
// port-value envelopes.
type executeRequest struct {
	Cap string                    `json:"cap"`
	Key string                    `json:"key,omitempty"`
	In  map[string]core.PortValue `json:"in"`
}

// executeResponse is the wire form of a fleet.Response.
type executeResponse struct {
	Out      map[string]core.PortValue `json:"out"`
	CacheHit bool                      `json:"cache_hit,omitempty"`
}

// handshake identifies one side's shard and catalog version. The
// coordinator POSTs its expectation to /v1/register; the worker
// compares against its own and refuses with CodeHandshakeMismatch
// unless both fingerprints agree — shard contents must match by
// construction (same world derivation, same shard count and index)
// and both binaries must carry the same builtin catalog.
type handshake struct {
	Index              int    `json:"index"`
	Shards             int    `json:"shards"`
	ShardFingerprint   string `json:"shard_fingerprint"`
	RegistryGeneration uint64 `json:"registry_generation"`
}

func (h handshake) matches(other handshake) bool {
	return h.Index == other.Index &&
		h.Shards == other.Shards &&
		h.ShardFingerprint == other.ShardFingerprint &&
		h.RegistryGeneration == other.RegistryGeneration
}

func (h handshake) String() string {
	fp := h.ShardFingerprint
	if len(fp) > 12 {
		fp = fp[:12]
	}
	return fmt.Sprintf("shard %d/%d fp %s gen %d", h.Index, h.Shards, fp, h.RegistryGeneration)
}

// writeJSON writes one JSON body with a status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a typed wire error.
func writeError(w http.ResponseWriter, code, format string, args ...any) {
	writeJSON(w, httpStatus(code), map[string]*wireError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}
