// Request decoding for the bodies POST /v1/ask, /v1/jobs and
// /v1/subscriptions share: a one-pass scanner for the plain shape
// clients send, and encoding/json for every other body.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"
)

// maxAskBody bounds a request body. A read past it fails the decode
// and closes the connection after the reply (http.MaxBytesReader).
const maxAskBody = 1 << 20

// maxScanBody bounds how much of a body the fast path reads: a body
// whose object has not ended within it goes to json.Decoder. The fast
// path scans the whole prefix again after each read, so the bound
// keeps a body that trickles in a byte at a time from costing more
// than a few megabytes of scanning. No buffer grows past 8 KiB, so
// every one is pooled.
const maxScanBody = 4 << 10

// askBodies recycles the buffers request bodies are read into.
var askBodies = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// decodeAsk parses and validates the shared request body. It reads
// the body into a pooled buffer and decodes the plain shape clients
// send in one pass, allocating only the query string: optional white
// space, then one object whose keys are query, no_cache, no_curation
// and full, unescaped; a query string of valid UTF-8 whose escapes are
// encoding/json's, with no surrogate \u escape; true or false for the
// flags. A later duplicate key wins, as in encoding/json. The fast
// path either accepts a body or defers it, and never decodes it
// differently: any other body (a timeout_ms or parallelism key, a key
// spelled another way, null, a nested value, invalid UTF-8, a
// top-level value that is not an object, a body that ends early) goes
// to json.Decoder, so its request and error are json.Decoder's. The
// body sees the reads it would see if json.Decoder read it alone: the
// fast path asks for the sizes json.Decoder asks for, and reads on
// only while json.Decoder would. So the 1 MiB bound is hit, and the
// rest of the body left for net/http to discard or to close the
// connection on, exactly as under json.Decoder alone.
func decodeAsk(w http.ResponseWriter, r *http.Request) (askRequest, bool) {
	bp := askBodies.Get().(*[]byte)
	req, b, err := readAsk(http.MaxBytesReader(w, r.Body, maxAskBody), (*bp)[:0])
	*bp = b[:0]
	askBodies.Put(bp)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return req, false
	}
	if strings.TrimSpace(req.Query) == "" {
		httpError(w, http.StatusBadRequest, "query required")
		return req, false
	}
	return req, true
}

// readAsk reads body into b until scanAsk accepts or defers what it
// holds, and decodes a deferred body with json.Decoder over the bytes
// read and then the rest of the body. Each read asks for what
// json.Decoder's would: its buffer starts at 512 bytes and grows to
// twice its size plus 512 when less than 512 are free, so the size of
// each of its reads follows from how many bytes it holds. Reading the
// bytes already read, json.Decoder comes to hold just as many, and
// asks the body for what it would have asked had it read the body
// alone. body must repeat its error on every later Read, as
// http.MaxBytesReader does. It returns the request, the buffer as
// grown, and the decode error.
func readAsk(body io.Reader, b []byte) (askRequest, []byte, error) {
	size := 0 // json.Decoder's buffer size
	for {
		if size-len(b) < 512 {
			size = 2*size + 512
			b = slices.Grow(b, size-len(b))
		}
		n, err := body.Read(b[len(b):size])
		b = b[:len(b)+n]
		req, st := scanAsk(b)
		if st == scanDone {
			return req, b, nil
		}
		if st == scanDefer || err != nil || len(b) >= maxScanBody {
			req, err = decodeJSON(io.MultiReader(bytes.NewReader(b), body))
			return req, b, err
		}
	}
}

// decodeJSON decodes a deferred body. It is apart from readAsk so that
// only a deferred body's request goes to the heap.
func decodeJSON(r io.Reader) (askRequest, error) {
	var req askRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

// askScan is scanAsk's verdict on the bytes read so far.
type askScan uint8

const (
	scanMore  askScan = iota // a prefix of an accepted body: read on
	scanDone                 // an accepted object, decoded
	scanDefer                // outside the shape: json.Decoder decides
)

// scanAsk decodes b if it starts with one object of the shape
// decodeAsk accepts. The request is meaningful only with scanDone.
// scanMore means b is a prefix of such an object, and so of a JSON
// value json.Decoder would read on for.
func scanAsk(b []byte) (askRequest, askScan) {
	var req askRequest
	var query []byte // the last query's contents, still escaped
	escaped := false
	i := skipSpace(b, 0)
	if i == len(b) {
		return req, scanMore
	}
	if b[i] != '{' {
		return req, scanDefer
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, scanDone
	}
	for {
		if i == len(b) {
			return req, scanMore
		}
		if b[i] != '"' {
			return req, scanDefer
		}
		// Every accepted key is lower-case letters and underscores.
		j := i + 1
		for j < len(b) && ('a' <= b[j] && b[j] <= 'z' || b[j] == '_') {
			j++
		}
		if j == len(b) {
			return req, scanMore
		}
		if b[j] != '"' {
			return req, scanDefer
		}
		key := b[i+1 : j]
		if i = skipSpace(b, j+1); i == len(b) {
			return req, scanMore
		}
		if b[i] != ':' {
			return req, scanDefer
		}
		if i = skipSpace(b, i+1); i == len(b) {
			return req, scanMore
		}
		var st askScan
		switch string(key) {
		case "query":
			query, escaped, i, st = scanString(b, i)
		case "no_cache":
			req.NoCache, i, st = scanBool(b, i)
		case "no_curation":
			req.NoCuration, i, st = scanBool(b, i)
		case "full":
			req.Full, i, st = scanBool(b, i)
		default:
			return req, scanDefer
		}
		if st != scanDone {
			return req, st
		}
		if i = skipSpace(b, i); i == len(b) {
			return req, scanMore
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return req, scanDefer
		}
		i = skipSpace(b, i+1)
	}
	if escaped {
		var buf [256]byte
		query = appendUnescaped(buf[:0], query)
	}
	req.Query = string(query)
	return req, scanDone
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString scans the JSON string at b[i] and returns its contents,
// still escaped, whether they hold an escape, and the index after its
// closing quote. It defers a value that is not a string, a control
// byte, invalid UTF-8, an escape encoding/json rejects and a \u escape
// in the surrogate range.
func scanString(b []byte, i int) (s []byte, escaped bool, next int, st askScan) {
	if b[i] != '"' {
		return nil, false, i, scanDefer
	}
	for j := i + 1; j < len(b); {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], escaped, j + 1, scanDone
		case c == '\\':
			if j+1 == len(b) {
				return nil, false, j, scanMore
			}
			escaped = true
			switch b[j+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				j += 2
			case 'u':
				if j+6 > len(b) {
					if _, ok := hex4(b[j+2:]); !ok {
						return nil, false, j, scanDefer
					}
					return nil, false, j, scanMore
				}
				r, ok := hex4(b[j+2 : j+6])
				if !ok || 0xd800 <= r && r <= 0xdfff {
					return nil, false, j, scanDefer
				}
				j += 6
			default:
				return nil, false, j, scanDefer
			}
		case c < ' ':
			return nil, false, j, scanDefer
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRune(b[j:])
			if r == utf8.RuneError && size == 1 {
				if !utf8.FullRune(b[j:]) {
					return nil, false, j, scanMore
				}
				return nil, false, j, scanDefer
			}
			j += size
		}
	}
	return nil, false, len(b), scanMore
}

// hex4 reads up to four hex digits.
func hex4(b []byte) (rune, bool) {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// appendUnescaped appends the string contents s, which scanString
// accepted, with their escapes decoded.
func appendUnescaped(dst, s []byte) []byte {
	for len(s) > 0 {
		n := bytes.IndexByte(s, '\\')
		if n < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:n]...)
		switch c := s[n+1]; c {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r, _ := hex4(s[n+2 : n+6])
			dst = utf8.AppendRune(dst, r)
			s = s[n+6:]
			continue
		default: // '"', '\\' or '/'
			dst = append(dst, c)
		}
		s = s[n+2:]
	}
	return dst
}

// scanBool scans true or false at b[i].
func scanBool(b []byte, i int) (v bool, next int, st askScan) {
	lit := "false"
	if b[i] == 't' {
		lit, v = "true", true
	}
	rest := b[i:]
	if len(rest) < len(lit) {
		if string(rest) == lit[:len(rest)] {
			return false, i, scanMore
		}
		return false, i, scanDefer
	}
	if string(rest[:len(lit)]) != lit {
		return false, i, scanDefer
	}
	return v, i + len(lit), scanDone
}
