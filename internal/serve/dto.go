// Wire views: the summary the HTTP tier serves by default. The full
// *core.Report (with its json tags) is available behind the request's
// "full" flag; the summary keeps routine responses small and stable
// while still naming every executed capability — which is also what
// the isolation tests inspect to prove no cross-tenant leakage.
//
// The summary is one JSON object with the keys, in order, query,
// intent, strategy, code, steps, quality_score, outputs, promotions and
// elapsed_us. intent, strategy and code are omitted when empty; steps,
// quality_score and outputs only appear once the run executed (steps
// and outputs only when non-empty); promotions only when the curator
// promoted something. Each step carries id, capability and duration_us,
// then cached only when true and error only when its text is not
// empty. Output values are encoded with json.Marshal, falling back to a
// quoted %v rendering for values JSON cannot represent, and appear
// under their sorted names.
//
// appendSummary writes it by hand, byte for byte what encoding/json
// with HTML escaping off writes for that shape (the reference encoder
// in the tests), and reuses the bytes a fully cached replay of a
// cached plan encoded before (core.ReplayMemo).
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"arachnet/internal/core"
)

// appendSummary appends rep's wire summary to dst, trailing newline
// included; a nil rep encodes as null.
func appendSummary(dst []byte, rep *core.Report) []byte {
	if rep == nil {
		return append(dst, "null\n"...)
	}
	dst = append(dst, `{"query":`...)
	dst = appendString(dst, rep.Query)
	if memo := core.ReplayMemo(rep); memo != nil {
		if b := memo.Load(); b != nil {
			dst = append(dst, *b...)
		} else {
			start := len(dst)
			dst = appendReplayed(dst, rep)
			b := bytes.Clone(dst[start:])
			memo.CompareAndSwap(nil, &b)
		}
	} else {
		dst = appendReplayed(dst, rep)
	}
	if len(rep.Promotions) > 0 {
		dst = append(dst, `,"promotions":[`...)
		for i := range rep.Promotions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, rep.Promotions[i].Capability.Name)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, rep.Elapsed.Microseconds(), 10)
	return append(dst, "}\n"...)
}

// summaryRaw is rep's summary for embedding in a larger JSON value, or
// nil for a nil rep.
func summaryRaw(rep *core.Report) json.RawMessage {
	if rep == nil {
		return nil
	}
	b := appendSummary(nil, rep)
	return b[:len(b)-1]
}

// appendReplayed appends the summary from intent through outputs: the
// part a fully cached replay derives from its plan entry alone.
func appendReplayed(dst []byte, rep *core.Report) []byte {
	if rep.Spec.Intent != "" {
		dst = append(dst, `,"intent":`...)
		dst = appendString(dst, string(rep.Spec.Intent))
	}
	if rep.Design != nil && rep.Design.Strategy != "" {
		dst = append(dst, `,"strategy":`...)
		dst = appendString(dst, rep.Design.Strategy)
	}
	if rep.Solution != nil && rep.Solution.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendString(dst, rep.Solution.Code)
	}
	res := rep.Result
	if res == nil {
		return dst
	}
	if len(res.Steps) > 0 {
		dst = append(dst, `,"steps":[`...)
		for i := range res.Steps {
			st := &res.Steps[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = appendString(dst, st.ID)
			dst = append(dst, `,"capability":`...)
			dst = appendString(dst, st.Capability)
			dst = append(dst, `,"duration_us":`...)
			dst = strconv.AppendInt(dst, st.Duration.Microseconds(), 10)
			if st.Cached {
				dst = append(dst, `,"cached":true`...)
			}
			if st.Err != nil {
				if msg := st.Err.Error(); msg != "" {
					dst = append(dst, `,"error":`...)
					dst = appendString(dst, msg)
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"quality_score":`...)
	dst = appendFloat(dst, res.QualityScore())
	if len(res.Outputs) > 0 {
		names := make([]string, 0, len(res.Outputs))
		for name := range res.Outputs {
			names = append(names, name)
		}
		slices.Sort(names)
		dst = append(dst, `,"outputs":{`...)
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
			dst = append(dst, ':')
			dst = append(dst, jsonValue(res.Outputs[name])...)
		}
		dst = append(dst, '}')
	}
	return dst
}

// jsonValue encodes an arbitrary output value, falling back to a
// quoted text rendering for values JSON cannot represent.
func jsonValue(v any) json.RawMessage {
	if data, err := json.Marshal(v); err == nil {
		return data
	}
	quoted, _ := json.Marshal(fmt.Sprintf("%v", v))
	return quoted
}

const hexDigits = "0123456789abcdef"

// safeByte marks the bytes appendString copies as they are: ASCII
// from the space up, except '"' and '\\'.
var safeByte = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping off: \" and \\, the short escapes \b \f \n \r \t,
// \u00XX for other control bytes, \ufffd for each invalid UTF-8 byte,
// and \u2028 and \u2029 always. Each run of safe bytes, and of valid
// UTF-8 other than U+2028 and U+2029, is copied at once.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if safeByte[s[i]] {
			i++
			continue
		}
		b := s[i]
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64: 'f' format,
// or 'e' below 1e-6 and from 1e21 up with a one-digit exponent written
// without its leading zero (1e-07 becomes 1e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
