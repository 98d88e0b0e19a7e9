package cluster

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"steppingnet/internal/serve"
)

// The POST /infer request codec: one hand-written reader and one
// writer for InferRequest, used by everything that touches that
// payload (the shared handler, Remote, any json caller through
// UnmarshalJSON). The reader accepts exactly what encoding/json
// accepts for the same struct and produces bitwise the same values —
// FuzzDecodeInferRequest pins the two together — plus one rule
// encoding/json's streaming Decoder does not have: nothing but
// whitespace may follow the object.

// jsonMaxDepth is encoding/json's nesting bound, counted in open
// containers including the request object itself.
const jsonMaxDepth = 10000

// UnmarshalJSON implements json.Unmarshaler with the hand-written
// reader. Like encoding/json it decodes into r.Input's backing array
// when that has room, and leaves fields the body does not name alone.
func (r *InferRequest) UnmarshalJSON(body []byte) error {
	_, err := r.decode(body, r.Input)
	return err
}

// decode parses one request object out of the body b in a single pass. Keys
// match input / deadline_ms / priority the way encoding/json matches
// them (exactly, else case-folded after unescaping), in any order,
// last one winning; unknown keys are skipped; a top-level null leaves
// r alone. The input numbers land in scratch's backing array (grown
// when short), and r.Input stays as it was when the body has no input
// key. Only scratch[:len(scratch)] is ever read — as the values a
// null element keeps, which is what encoding/json does with a slice
// it decodes into — so handing in pooled memory as scratch[:0] leaks
// nothing of an earlier request.
//
// text is the byte range of b holding the input array, for a
// transport to forward verbatim (see serve.Request.InputJSON); nil
// when there was none or it held a null element, whose value is not
// in the text.
func (r *InferRequest) decode(b []byte, scratch []float64) (text []byte, err error) {
	i := skipSpace(b, 0)
	if bytes.HasPrefix(b[i:], nullLit) {
		return nil, endOfBody(b, i+len(nullLit))
	}
	if i == len(b) || b[i] != '{' {
		return nil, codecErr(b, i, "want a JSON object")
	}
	slots := floatSlots{buf: scratch[:cap(scratch)], live: len(scratch)}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil, endOfBody(b, i+1)
	}
	for {
		if i == len(b) || b[i] != '"' {
			return nil, codecErr(b, i, "want an object key")
		}
		end, ok := scanString(b, i)
		if !ok {
			return nil, codecErr(b, end, "bad string")
		}
		field := inferField(b[i+1 : end-1])
		i = skipSpace(b, end)
		if i == len(b) || b[i] != ':' {
			return nil, codecErr(b, i, "want ':' after an object key")
		}
		i = skipSpace(b, i+1)
		isNull := bytes.HasPrefix(b[i:], nullLit)
		switch {
		case field == fieldUnknown:
			if i, err = skipValue(b, i, 1); err != nil {
				return nil, err
			}
		case isNull && field == fieldInput:
			// encoding/json drops the slice, backing array and all.
			r.Input, text, slots.live = nil, nil, 0
			i += len(nullLit)
		case isNull:
			i += len(nullLit)
		case field == fieldInput:
			start, pure := i, false
			if r.Input, pure, i, err = slots.decode(b, i); err != nil {
				return nil, err
			}
			text = nil
			if pure {
				text = b[start:i]
			}
		default:
			end := scanNumber(b, i)
			if end < 0 {
				return nil, codecErr(b, i, "want a number")
			}
			if field == fieldDeadline {
				r.DeadlineMs, err = strconv.ParseFloat(string(b[i:end]), 64)
			} else {
				var p int64
				p, err = strconv.ParseInt(string(b[i:end]), 10, 0)
				r.Priority = int(p)
			}
			if err != nil {
				return nil, codecErr(b, i, "number does not fit its field")
			}
			i = end
		}
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == '}' {
			return text, endOfBody(b, i+1)
		}
		return nil, codecErr(b, i, "want ',' or '}' in the object")
	}
}

// floatSlots is the storage an input array decodes into. buf[:live]
// hold values this body (or UnmarshalJSON's caller) already put there:
// a null element keeps the one at its index and reads as 0 beyond
// them, which is what encoding/json does with a slice it decodes into
// twice. Nothing of buf[live:] is ever read.
type floatSlots struct {
	buf  []float64
	live int
}

// decode reads the array of numbers (or nulls) at b[i] and returns it
// as a prefix of s.buf, which it grows when short, plus the offset
// past the ']'. pure reports that every element was a number, so the
// array's text says all there is to say about its values.
func (s *floatSlots) decode(b []byte, i int) (vals []float64, pure bool, end int, err error) {
	if i == len(b) || b[i] != '[' {
		return nil, false, i, codecErr(b, i, "input: want an array of numbers")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		s.live = 0 // encoding/json swaps in a fresh empty slice
		return []float64{}, true, i + 1, nil
	}
	n, pure := 0, true
	for {
		if n == len(s.buf) {
			// Once, for the whole array: it has at most one more element
			// per comma left in the body.
			grown := make([]float64, n+1+bytes.Count(b[i:], []byte{','}))
			copy(grown, s.buf[:s.live])
			s.buf = grown
		}
		if bytes.HasPrefix(b[i:], nullLit) {
			if n >= s.live {
				s.buf[n] = 0
			}
			pure = false
			i += len(nullLit)
		} else {
			stop := scanNumber(b, i)
			if stop < 0 {
				return nil, false, i, codecErr(b, i, "input: want a number")
			}
			// The grammar check keeps ParseFloat's extras (hex, Inf,
			// NaN, underscores) out; ParseFloat itself is what
			// encoding/json converts with, so the bits agree.
			if s.buf[n], err = strconv.ParseFloat(string(b[i:stop]), 64); err != nil {
				return nil, false, i, codecErr(b, i, "input: number out of float64 range")
			}
			i = stop
		}
		n++
		s.live = max(s.live, n)
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			return s.buf[:n], pure, i + 1, nil
		}
		return nil, false, i, codecErr(b, i, "input: want ',' or ']'")
	}
}

var nullLit = []byte("null")

const (
	fieldUnknown = iota
	fieldInput
	fieldDeadline
	fieldPriority
)

// inferField maps an object key (the bytes between its quotes) to the
// field encoding/json would store it in.
func inferField(key []byte) int {
	switch string(key) {
	case "input":
		return fieldInput
	case "deadline_ms":
		return fieldDeadline
	case "priority":
		return fieldPriority
	}
	var arr [32]byte
	name := unquoteKey(arr[:0], key)
	switch {
	case bytes.EqualFold(name, []byte("input")):
		return fieldInput
	case bytes.EqualFold(name, []byte("deadline_ms")):
		return fieldDeadline
	case bytes.EqualFold(name, []byte("priority")):
		return fieldPriority
	}
	return fieldUnknown
}

// unquoteKey appends key with its escapes resolved, enough for a
// case-folded comparison against the ASCII field names: a surrogate
// escape becomes U+FFFD unpaired, which matches no name either way.
// key has already passed scanString.
func unquoteKey(dst, key []byte) []byte {
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		switch key[i] {
		case 'u':
			r, _ := strconv.ParseUint(string(key[i+1:i+5]), 16, 16)
			dst = utf8.AppendRune(dst, rune(r))
			i += 4
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
		default:
			dst = append(dst, key[i]) // " \ /
		}
	}
	return dst
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipDigits returns the offset past the run of digits at b[i].
func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// scanNumber returns the offset past the JSON number starting at b[i],
// or -1 when b[i:] does not start with one. What follows the token is
// the caller's business: "01" scans as "0".
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	end := skipDigits(b, i)
	if end == i {
		return -1
	}
	if b[i] == '0' {
		end = i + 1
	}
	if i = end; i < len(b) && b[i] == '.' {
		if end = skipDigits(b, i+1); end == i+1 {
			return -1
		}
		i = end
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if end = skipDigits(b, i); end == i {
			return -1
		}
		i = end
	}
	return i
}

// scanString returns the offset past the closing quote of the JSON
// string opening at b[i]; ok is false (and end the offending offset)
// for a control character, a bad escape or a missing quote. Invalid
// UTF-8 passes, as it does in encoding/json.
func scanString(b []byte, i int) (end int, ok bool) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return i, false
		case c == '\\':
			i++
			if i == len(b) {
				return i, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(b) || !isHex(b[i+k]) {
						return i, false
					}
				}
				i += 4
			default:
				return i, false
			}
		}
	}
	return i, false
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipValue validates the JSON value at b[i] — the value of a key the
// request does not define — and returns the offset past it. depth
// counts the containers already open around it.
func skipValue(b []byte, i, depth int) (int, error) {
	if i == len(b) {
		return i, codecErr(b, i, "want a value")
	}
	switch c := b[i]; {
	case c == '"':
		end, ok := scanString(b, i)
		if !ok {
			return end, codecErr(b, end, "bad string")
		}
		return end, nil
	case c == '{' || c == '[':
		if depth >= jsonMaxDepth {
			return i, codecErr(b, i, "nested too deep")
		}
		closer := c + 2 // '{'+2 == '}', '['+2 == ']'
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == closer {
			return i + 1, nil
		}
		for {
			if c == '{' {
				if i == len(b) || b[i] != '"' {
					return i, codecErr(b, i, "want an object key")
				}
				end, ok := scanString(b, i)
				if !ok {
					return end, codecErr(b, end, "bad string")
				}
				i = skipSpace(b, end)
				if i == len(b) || b[i] != ':' {
					return i, codecErr(b, i, "want ':' after an object key")
				}
				i = skipSpace(b, i+1)
			}
			var err error
			if i, err = skipValue(b, i, depth+1); err != nil {
				return i, err
			}
			i = skipSpace(b, i)
			if i < len(b) && b[i] == ',' {
				i = skipSpace(b, i+1)
				continue
			}
			if i < len(b) && b[i] == closer {
				return i + 1, nil
			}
			return i, codecErr(b, i, "want ',' or the closing bracket")
		}
	case c == 't' && bytes.HasPrefix(b[i:], []byte("true")):
		return i + 4, nil
	case c == 'f' && bytes.HasPrefix(b[i:], []byte("false")):
		return i + 5, nil
	case c == 'n' && bytes.HasPrefix(b[i:], nullLit):
		return i + 4, nil
	}
	if end := scanNumber(b, i); end >= 0 {
		return end, nil
	}
	return i, codecErr(b, i, "want a value")
}

// endOfBody checks that only whitespace follows the request value.
func endOfBody(b []byte, i int) error {
	if i = skipSpace(b, i); i != len(b) {
		return codecErr(b, i, "data after the request object")
	}
	return nil
}

func codecErr(b []byte, i int, msg string) error {
	if i >= len(b) {
		return fmt.Errorf("infer request: %s at offset %d, where the body ends", msg, i)
	}
	return fmt.Errorf("infer request: %s at offset %d, found %q", msg, i, b[i])
}

// appendInferRequest appends the wire form of req: the input as the
// text it arrived in when req carries it (a router forwarding a
// client's body never formats the floats it parsed), else formatted
// shortest-round-trip, then deadline_ms and priority freshly written
// so a router's default deadline and header priority travel. Zero
// fields are omitted, as InferRequest's omitempty tags always had it.
// Non-finite inputs have no JSON form and are an error.
func appendInferRequest(dst []byte, req serve.Request) ([]byte, error) {
	dst = append(dst, '{') // every member below ends in a comma; the last one is taken back
	switch {
	case req.InputJSON != nil:
		dst = append(append(append(dst, `"input":`...), req.InputJSON...), ',')
	case len(req.Input) > 0:
		dst = append(dst, `"input":[`...)
		for i, v := range req.Input {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("input[%d] is %v, which JSON cannot carry", i, v)
			}
			dst = append(strconv.AppendFloat(dst, v, 'g', -1, 64), ',')
		}
		dst = append(dst[:len(dst)-1], ']', ',')
	}
	if req.Deadline != 0 {
		dst = append(dst, `"deadline_ms":`...)
		dst = append(strconv.AppendFloat(dst, float64(req.Deadline)/float64(time.Millisecond), 'g', -1, 64), ',')
	}
	if req.Priority != 0 {
		dst = append(dst, `"priority":`...)
		dst = append(strconv.AppendInt(dst, int64(req.Priority), 10), ',')
	}
	if dst[len(dst)-1] == ',' {
		dst = dst[:len(dst)-1]
	}
	return append(dst, '}'), nil
}
