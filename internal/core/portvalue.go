package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"reflect"

	"arachnet/internal/bgp"
	"arachnet/internal/nautilus"
	"arachnet/internal/netsim"
	"arachnet/internal/registry"
	"arachnet/internal/topo"
	"arachnet/internal/traceroute"
	"arachnet/internal/xaminer"
)

// The port-value table: every Go type a builtin capability port
// carries, under a stable tag. In-process, step inputs and outputs
// pass by reference; crossing a process boundary (the worker wire in
// internal/fleetwire) or a restart (cache snapshots) needs the exact
// type back on the far side — a bare json.Unmarshal into interface{}
// would yield map[string]interface{} soup — so every value travels as
// a tagged envelope:
//
//	{"type": "[]netsim.LinkID", "value": [12, 40, 77]}
//
// The table is closed: a value of any other type fails to encode
// rather than being guessed at. Every listed type round-trips exactly
// (all fields exported, times in UTC RFC3339-nano, netip values via
// MarshalText, integer-keyed maps via Go's JSON map-key encoding).
// Tags are written into snapshot files and exchanged between fleet
// binaries, so renaming one is a format change.

// PortValue is one tagged value envelope.
type PortValue struct {
	Type  string          `json:"type"`
	Value json.RawMessage `json:"value"`
}

// portType is one table entry. data is the registry DataType whose
// ports carry the type ("" for types no builtin port declares).
type portType struct {
	tag    string
	typ    reflect.Type
	data   registry.DataType
	decode func(json.RawMessage) (any, error)
}

func port[T any](tag string, data registry.DataType) portType {
	return portType{tag: tag, typ: reflect.TypeFor[T](), data: data, decode: decodePort[T]}
}

func decodePort[T any](raw json.RawMessage) (any, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	// Capabilities dereference their pointer inputs, and none outputs
	// a nil pointer, so null never decodes under a pointer tag.
	if rv := reflect.ValueOf(&v).Elem(); rv.Kind() == reflect.Pointer && rv.IsNil() {
		return nil, errors.New("null pointer value")
	}
	return v, nil
}

// portTypes lists one entry per port type of the builtin catalog
// (catalog.go, catalog2.go), plus the scalars planner literals and
// adapters use. TestPortTypesCoverCatalog fails on a catalog port
// whose DataType has no entry here.
var portTypes = []portType{
	port[string]("string", registry.TString),
	port[bool]("bool", ""),
	port[int]("int", ""),
	port[float64]("float64", registry.TFloat),
	port[[]string]("[]string", registry.TStringList),

	port[nautilus.CableID]("nautilus.CableID", registry.TCableID),
	port[[]nautilus.CableID]("[]nautilus.CableID", registry.TCableList),
	port[[]netsim.LinkID]("[]netsim.LinkID", registry.TLinkSet),
	port[[]netip.Addr]("[]netip.Addr", registry.TIPSet),
	port[[]GeoRow]("[]core.GeoRow", registry.TGeoTable),
	port[*xaminer.ImpactReport]("*xaminer.ImpactReport", registry.TImpact),
	port[[]xaminer.Event]("[]xaminer.Event", registry.TEventList),
	port[[]xaminer.EventImpact]("[]xaminer.EventImpact", registry.TEventImpact),
	port[xaminer.GlobalImpact]("xaminer.GlobalImpact", registry.TGlobal),
	port[[]bgp.Message]("[]bgp.Message", registry.TBGPStream),
	port[[]bgp.Burst]("[]bgp.Burst", registry.TBGPBursts),
	port[*traceroute.Archive]("*traceroute.Archive", registry.TTraceArch),
	port[LatencyFinding]("core.LatencyFinding", registry.TAnomaly),
	port[CascadeBundle]("core.CascadeBundle", registry.TCascade),
	port[topo.StressResult]("topo.StressResult", registry.TStress),
	port[[]CableSuspect]("[]core.CableSuspect", registry.TSuspects),
	port[Verdict]("core.Verdict", registry.TVerdict),
	port[*Timeline]("*core.Timeline", registry.TTimeline),
}

var (
	portByTag  = map[string]*portType{}
	portByType = map[reflect.Type]*portType{}
)

func init() {
	for i := range portTypes {
		p := &portTypes[i]
		if portByTag[p.tag] != nil || portByType[p.typ] != nil {
			panic(fmt.Sprintf("core: port type %q (%v) listed twice", p.tag, p.typ))
		}
		portByTag[p.tag], portByType[p.typ] = p, p
	}
}

// encodePortValue wraps one Go value in its tagged envelope.
func encodePortValue(v any) (PortValue, error) {
	if v == nil {
		return PortValue{}, fmt.Errorf("core: cannot encode nil port value")
	}
	p, ok := portByType[reflect.TypeOf(v)]
	if !ok {
		return PortValue{}, fmt.Errorf("core: no port type for %T", v)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return PortValue{}, fmt.Errorf("core: encode %s: %w", p.tag, err)
	}
	return PortValue{Type: p.tag, Value: raw}, nil
}

// decodePortValue restores the concrete Go value from its envelope.
func decodePortValue(pv PortValue) (any, error) {
	p, ok := portByTag[pv.Type]
	if !ok {
		return nil, fmt.Errorf("core: unknown port type tag %q", pv.Type)
	}
	v, err := p.decode(pv.Value)
	if err != nil {
		return nil, fmt.Errorf("core: decode %s: %w", p.tag, err)
	}
	return v, nil
}

// EncodePortValues encodes a step input or output map. It fails on a
// value whose type the table does not list.
func EncodePortValues(m map[string]any) (map[string]PortValue, error) {
	out := make(map[string]PortValue, len(m))
	for k, v := range m {
		pv, err := encodePortValue(v)
		if err != nil {
			return nil, fmt.Errorf("%w (key %q)", err, k)
		}
		out[k] = pv
	}
	return out, nil
}

// DecodePortValues is the inverse of EncodePortValues. It fails on an
// unknown tag, on a value that does not decode as its tag's type, and
// on a null under a pointer tag.
func DecodePortValues(m map[string]PortValue) (map[string]any, error) {
	out := make(map[string]any, len(m))
	for k, pv := range m {
		v, err := decodePortValue(pv)
		if err != nil {
			return nil, fmt.Errorf("%w (key %q)", err, k)
		}
		out[k] = v
	}
	return out, nil
}
