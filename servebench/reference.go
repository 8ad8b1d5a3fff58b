package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"

	"arachnet/internal/core"
	"arachnet/internal/nlq"
)

// reference holds the expected outputs of every query the workloads
// ask, computed by a separate curation-off System with AskNoCache over
// its own fixture environment. Only the outputs are kept: the System
// and its world are released before any deployment is built, so they
// are not part of the heap a run measures.
type reference struct {
	sets      []paramSet
	caseStudy []*expected // by index into caseStudies
	params    []*expected // by index into sets
}

func newReference() (*reference, error) {
	sys, err := newNoCacheSystem()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	cat := sys.Environment().Catalog
	ref := &reference{sets: paramSets(cat)}
	for i, q := range caseStudies {
		out, err := noCacheOutputs(sys, q)
		if err != nil {
			return nil, fmt.Errorf("case study %d: %w", i+1, err)
		}
		ref.caseStudy = append(ref.caseStudy, &expected{canonical: out})
	}
	for i, ps := range ref.sets {
		if got := nlq.Parse(ps.core, cat).Intent; got != ps.intent {
			return nil, fmt.Errorf("novel parameter set %d parses as %s, want %s: %q", i, got, ps.intent, ps.core)
		}
		out, err := noCacheOutputs(sys, phrase(ps.core, 0))
		if err != nil {
			return nil, fmt.Errorf("novel parameter set %d: %w", i, err)
		}
		ref.params = append(ref.params, &expected{canonical: out})
	}
	return ref, nil
}

// newNoCacheSystem returns a System over a fresh fixture environment
// for reference and per-layer computations, apart from any deployment.
func newNoCacheSystem() (*core.System, error) {
	env, err := newFixtureEnv()
	if err != nil {
		return nil, err
	}
	return core.NewSystem(env, core.BuiltinRegistry())
}

// noCacheOutputs runs query fresh on sys, without caches or curation,
// and returns its canonical outputs.
func noCacheOutputs(sys *core.System, query string) ([]byte, error) {
	rep, err := sys.Ask(context.Background(), query, core.AskNoCache(), core.AskWithoutCuration())
	if err != nil {
		return nil, err
	}
	return canonicalOutputs(rep.Result.Outputs)
}

// canonicalOutputs encodes workflow outputs the way the serving tier
// does: each value as JSON (or its quoted text form when JSON cannot
// represent it), in a key-sorted object without HTML escaping.
func canonicalOutputs(outputs map[string]any) ([]byte, error) {
	raw := make(map[string]json.RawMessage, len(outputs))
	for k, v := range outputs {
		b, err := json.Marshal(v)
		if err != nil {
			b, err = json.Marshal(fmt.Sprintf("%v", v))
			if err != nil {
				return nil, fmt.Errorf("encode output %q: %w", k, err)
			}
		}
		raw[k] = b
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(raw); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// expected is one reference answer: its canonical outputs, and the
// last differently encoded outputs a response carried that decoded to
// the same values.
type expected struct {
	canonical []byte
	served    atomic.Pointer[json.RawMessage]
}

var outputsKey = []byte(`"outputs":`)

// matches reports whether a /v1/ask response body carries exactly the
// expected outputs. A byte comparison in place decides the common
// case. Anything else is decoded and compared as JSON values, so a
// change in encoding alone is never reported as a wrong answer; the
// served encoding is then remembered, and later responses compare
// bytes again. The check thus costs the same whatever encoding the
// serving tier uses. The key cannot occur inside a JSON string, where
// its quotes would be escaped.
func (e *expected) matches(body []byte) bool {
	i := bytes.Index(body, outputsKey)
	if i < 0 {
		return false
	}
	rest := bytes.TrimLeft(body[i+len(outputsKey):], " \t\r\n")
	if startsWithValue(rest, e.canonical) {
		return true
	}
	if s := e.served.Load(); s != nil && startsWithValue(rest, *s) {
		return true
	}
	var got json.RawMessage // a copy of the served bytes
	if err := json.NewDecoder(bytes.NewReader(rest)).Decode(&got); err != nil || !sameJSON(got, e.canonical) {
		return false
	}
	e.served.Store(&got)
	return true
}

// startsWithValue reports whether rest begins with the JSON value v,
// followed by the end of the enclosing object or its next member.
func startsWithValue(rest, v []byte) bool {
	return len(rest) > len(v) && bytes.HasPrefix(rest, v) && (rest[len(v)] == ',' || rest[len(v)] == '}')
}

// sameJSON reports whether a and b decode to equal JSON values.
func sameJSON(a, b []byte) bool {
	var va, vb any
	return json.Unmarshal(a, &va) == nil && json.Unmarshal(b, &vb) == nil && reflect.DeepEqual(va, vb)
}
