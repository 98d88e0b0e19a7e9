package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"time"
	"unicode/utf8"

	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
)

// The POST /infer codec: one hand-written reader and one writer for
// each of InferRequest and InferResponse, used by everything that
// touches those payloads (the shared handler, Remote, any json caller
// through UnmarshalJSON). A reader accepts exactly what encoding/json
// accepts for the same struct and produces bitwise the same values —
// FuzzDecodeInferRequest and FuzzDecodeInferResponse pin the pairs
// together — plus one rule encoding/json's streaming Decoder does not
// have: nothing but whitespace may follow the object. The answer
// writer's bytes are json.NewEncoder(w).Encode's. Numbers are read
// once: the pass that checks a token's grammar gathers its digits eight
// to a word, parseFloat rounds them exactly (one exact division or
// multiply, else Eisel–Lemire) and leaves to strconv, on the same
// token, only what it cannot decide. An array element in the form the
// writers give most numbers, -0.d…, takes shortFloat, a fixed run of
// word steps over a subset of the same grammar.

// jsonMaxDepth is encoding/json's nesting bound, counted in open
// containers including the request object itself.
const jsonMaxDepth = 10000

// UnmarshalJSON implements json.Unmarshaler with the hand-written
// reader. Like encoding/json it decodes into r.Input's backing array
// when that has room, and leaves fields the body does not name alone.
func (r *InferRequest) UnmarshalJSON(body []byte) error {
	_, err := r.decode(body, r.Input, nil)
	return err
}

// requestFields are InferRequest's JSON names: fieldInput,
// fieldDeadline, then priority.
var requestFields = []string{"input", "deadline_ms", "priority"}

const (
	fieldInput = iota
	fieldDeadline
)

// inputText is what decode learned about the input array besides its
// values: text, the byte range of the body holding it, for a transport
// to forward verbatim (see serve.Request.InputJSON; nil when there was
// none or it held a null element, whose value is not in the text), and,
// when keyed, the cache.KeyOf of its values — computed from them, or
// remembered by the memo, the numbers then skipped and r.Input nil.
type inputText struct {
	text  []byte
	key   cache.Key
	keyed bool
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
// With a memo, an input array whose text the memo has seen decode is
// not read again: every byte outside it is checked as ever, r.Input is
// left nil and in.key is the key of the values the text spells. A text
// is remembered once every element has decoded as a number. A later
// input key still wins; the skipped numbers are read first then, since
// a null element of the later array keeps the earlier one's value.
func (r *InferRequest) decode(b []byte, scratch []float64, memo *textMemo) (in inputText, err error) {
	slots := floatSlots{buf: scratch[:cap(scratch)], live: len(scratch)}
	skipped := -1 // where an array the memo knew starts, its numbers unread
	err = decodeObject(b, requestFields, func(field, i int) (int, error) {
		if field == fieldInput && skipped >= 0 {
			if _, _, _, err := slots.decode(b, skipped); err != nil {
				return i, err
			}
			skipped = -1
		}
		switch {
		case bytes.HasPrefix(b[i:], nullLit):
			if field == fieldInput {
				// encoding/json drops the slice, backing array and all.
				r.Input, in, slots.live = nil, inputText{}, 0
			}
			return i + len(nullLit), nil
		case field == fieldInput:
			start := i
			mark, closer := memo.mark(b, i)
			if in.key, in.keyed = memo.lookup(mark); in.keyed {
				r.Input, in.text, skipped = nil, b[start:closer], start
				return closer, nil
			}
			input, pure, i, err := slots.decode(b, i)
			if err != nil {
				return i, err
			}
			r.Input, in.text = input, nil
			if pure {
				in.text = b[start:i]
			}
			if pure && i == closer && len(r.Input) == int(mark.count) {
				in.key, in.keyed = cache.KeyOf(r.Input), true
				memo.store(mark, in.key)
			}
			return i, nil
		case field == fieldDeadline:
			return decodeNumber(b, i, &r.DeadlineMs)
		}
		return decodeNumber(b, i, &r.Priority)
	})
	if err != nil {
		return inputText{}, fmt.Errorf("infer request: %w", err)
	}
	return in, nil
}

// decodeObject reads the JSON object b holds (a top-level null names
// nothing). For a key encoding/json would match to one of names, member
// reads the value at i and returns the offset past it; other keys'
// values are checked and skipped. Only whitespace may follow.
func decodeObject(b []byte, names []string, member func(field, i int) (int, error)) error {
	i := skipSpace(b, 0)
	if bytes.HasPrefix(b[i:], nullLit) {
		return endOfBody(b, i+len(nullLit))
	}
	if i == len(b) || b[i] != '{' {
		return codecErr(b, i, "want a JSON object")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return endOfBody(b, i+1)
	}
	for {
		if i == len(b) || b[i] != '"' {
			return codecErr(b, i, "want an object key")
		}
		end, ok := scanString(b, i)
		if !ok {
			return codecErr(b, end, "bad string")
		}
		field := fieldIndex(b[i+1:end-1], names)
		i = skipSpace(b, end)
		if i == len(b) || b[i] != ':' {
			return codecErr(b, i, "want ':' after an object key")
		}
		var err error
		if i = skipSpace(b, i+1); field < 0 {
			i, err = skipValue(b, i, 1)
		} else {
			i, err = member(field, i)
		}
		if err != nil {
			return err
		}
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == '}' {
			return endOfBody(b, i+1)
		}
		return codecErr(b, i, "want ',' or '}' in the object")
	}
}

// decodeNumber reads the JSON number at b[i] into *dst, a float64 or
// an integer field, as encoding/json stores one there (an integer takes
// no fraction or exponent, and must fit), returning the offset past it.
func decodeNumber(b []byte, i int, dst any) (int, error) {
	end, err := scanNumber(b, i), error(nil)
	if end < 0 {
		return i, codecErr(b, i, "want a number")
	}
	switch p := dst.(type) {
	case *float64:
		*p, _, err = parseFloat(b, i)
	case *int64:
		*p, err = strconv.ParseInt(string(b[i:end]), 10, 64)
	case *int:
		var n int64
		n, err = strconv.ParseInt(string(b[i:end]), 10, 0)
		*p = int(n)
	}
	if err != nil {
		return i, codecErr(b, i, "number does not fit its field")
	}
	return end, nil
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
		return nil, false, i, codecErr(b, i, "want an array of numbers")
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
		if f, stop, ok := shortFloat(b, i); ok {
			s.buf[n], i = f, stop
		} else if i < len(b) && b[i] == 'n' && bytes.HasPrefix(b[i:], nullLit) {
			if n >= s.live {
				s.buf[n] = 0
			}
			pure = false
			i += len(nullLit)
		} else {
			if s.buf[n], stop, err = parseFloat(b, i); stop < 0 {
				return nil, false, i, codecErr(b, i, "want a number in the array")
			} else if err != nil {
				return nil, false, i, codecErr(b, i, "number out of float64 range")
			}
			i = stop
		}
		n++
		s.live = max(s.live, n)
		if i < len(b) && b[i] == ',' { // the writers' form: no space before the comma
			i = skipSpace(b, i+1)
			continue
		}
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			return s.buf[:n], pure, i + 1, nil
		}
		return nil, false, i, codecErr(b, i, "want ',' or ']' in the array")
	}
}

var nullLit = []byte("null")

// fieldIndex maps an object key (the bytes between its quotes) to the
// index of the name encoding/json would store it under, or -1.
func fieldIndex(key []byte, names []string) int {
	for f, name := range names {
		if string(key) == name {
			return f
		}
	}
	var arr [32]byte
	folded := unquoteKey(arr[:0], key)
	for f, name := range names {
		if bytes.EqualFold(folded, []byte(name)) {
			return f
		}
	}
	return -1
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
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanNumber returns the offset past the JSON number starting at b[i],
// or -1 when b[i:] does not start with one. What follows the token is
// the caller's business: "01" scans as "0".
func scanNumber(b []byte, i int) int {
	_, _, _, end, _ := scanDecimal(b, i)
	return end
}

// parseFloat reads the JSON number at b[i] (end is -1 when there is
// none) as the float64 strconv.ParseFloat makes of the same token, bit
// for bit. It rounds the token itself when it can tell which float64 is
// nearest, and that is the correctly rounded one, which is strconv's.
// When it cannot — more than 19 significant digits, a decimal exponent
// outside pow10, a product too close to half-way, a subnormal or
// out-of-range result — the token goes to strconv as it always did: the
// one ParseFloat on the input path, kept from its extras (hex, Inf,
// NaN, underscores) by the grammar check. err reports a number that is
// not a finite float64.
func parseFloat(b []byte, i int) (f float64, end int, err error) {
	man, exp10, neg, end, exact := scanDecimal(b, i)
	if exact {
		if f, exact = exactFloat(man, exp10); !exact {
			f, exact = eiselLemire(man, exp10)
		}
	}
	if neg {
		f = -f
	}
	if end >= 0 && !exact {
		f, err = strconv.ParseFloat(string(b[i:end]), 64)
	}
	return f, end, err
}

// scanDecimal is the one place the JSON number grammar lives. In the
// pass that checks it, it gathers the token as ±man × 10^exp10; exact
// reports that man holds every significant digit (there were at most
// 19). end is -1 for no number.
func scanDecimal(b []byte, i int) (man uint64, exp10 int, neg bool, end int, exact bool) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	// nd counts the digits folded into man, unchecked: beyond 19 man may
	// have wrapped. Zeros ahead of the first non-zero digit stay out.
	first := i
	if i < len(b) && b[i] == '0' {
		i++
		first = i
	} else {
		if man, i = digitRun(b, i, 0); i == first {
			return 0, 0, neg, -1, false
		}
	}
	nd := i - first
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; man == 0 && i < len(b) && b[i] == '0'; i++ {
		}
		sig := i
		if man, i = digitRun(b, i, man); i == frac {
			return 0, 0, neg, -1, false
		}
		nd, exp10 = nd+i-sig, frac-i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if eneg || i < len(b) && b[i] == '+' {
			i++
		}
		e, digits := 0, i
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 100000 { // saturates far outside the table
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, 0, neg, -1, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	return man, exp10, neg, i, nd <= 19
}

// shortFloat reads the form the writers of this service's bodies give
// most numbers, -?D.D+ with 8 to 19 fraction digits and no exponent, in
// a fixed run of word steps, and rounds it as parseFloat would. ok is
// false for any other token, for one that starts within 27 bytes of the
// end of b, and for the rare one Eisel–Lemire cannot decide: parseFloat
// reads those. It accepts a strict subset of scanDecimal's grammar, and
// its only branches are the ones that turn a token away and the choice
// between the exact division and Eisel–Lemire.
func shortFloat(b []byte, i int) (f float64, end int, ok bool) {
	if len(b)-i < 27 {
		return 0, -1, false
	}
	var sign uint64 // a select, not a branch: half the tokens are negative
	if b[i] == '-' {
		sign = 1
	}
	t := b[i+int(sign):][:26] // one bounds check for every read below
	d0 := uint64(t[0]) - '0'
	if d0 > 9 || t[1] != '.' {
		return 0, -1, false
	}
	w1 := binary.LittleEndian.Uint64(t[2:10])
	w2 := binary.LittleEndian.Uint64(t[10:18])
	w3 := binary.LittleEndian.Uint64(t[18:26])
	if nonDigits(w1) != 0 {
		return 0, -1, false
	}
	k2 := bits.TrailingZeros64(nonDigits(w2)) >> 3
	k3 := bits.TrailingZeros64(nonDigits(w3)) >> 3
	if k2 < 8 {
		k3 = 0
	}
	nf := 8 + k2 + k3 // fraction digits; man < 10^19 with d0 ahead of them
	if nf > 19 || nf == 19 && d0 != 0 || t[2+nf]|0x20 == 'e' {
		return 0, -1, false
	}
	man := (d0*1e8+eightDigits(w1))*smallPow10[k2] + eightDigits(leadDigits(w2, k2))
	man = man*smallPow10[k3] + eightDigits(leadDigits(w3, k3))
	if man>>53 == 0 {
		f = float64(int64(man)) / exactPow10[nf] // exactFloat's case, inline
	} else if f, ok = eiselLemire(man, -nf); !ok {
		return 0, -1, false
	}
	return math.Float64frombits(math.Float64bits(f) | sign<<63), i + int(sign) + 2 + nf, true
}

// nonDigits has the high bit set of each byte of w that is not '0'…'9'
// up to and including the first such byte: w-'0' borrows below '0',
// w+0x46 carries above '9', and no byte at or below the first flagged
// one is disturbed by its neighbours.
func nonDigits(w uint64) uint64 {
	return ((w + 0x4646464646464646) | (w - 0x3030303030303030)) & 0x8080808080808080
}

// leadDigits keeps the first k bytes of w (k ≤ 8) as the last k digits
// of an eight-digit word, '0's ahead of them.
func leadDigits(w uint64, k int) uint64 {
	return w*leadShift[k] | leadFill[k]
}

// leadShift[k] moves a word's first k bytes to its top, and leadFill[k]
// puts '0's in the 8-k bytes below them.
var leadShift, leadFill [9]uint64

func init() {
	for k := range leadShift {
		leadShift[k] = 1 << (64 - 8*k) // 0 for k == 0
		leadFill[k] = 0x3030303030303030 >> (8 * k)
	}
}

// digitRun folds the run of decimal digits at b[i:] into man (wrapping
// past 19 digits, which the caller counts) and returns the offset past
// it. Where eight bytes are left it takes them as one little-endian
// word: a word of eight digits is folded whole, and one that stops at
// its k-th byte folds those k digits and ends the run. Only the last
// seven bytes of b are read one at a time.
func digitRun(b []byte, i int, man uint64) (uint64, int) {
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		other := nonDigits(w)
		if other == 0 {
			man = man*1e8 + eightDigits(w)
			continue
		}
		k := bits.TrailingZeros64(other) >> 3
		return man*smallPow10[k] + eightDigits(leadDigits(w, k)), i + k
	}
	for ; i < len(b) && isDigit(b[i]); i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return man, i
}

// eightDigits is the value of the eight ASCII digits w holds, the first
// in its low byte: pairs, then quads, then the whole (Lemire, "Number
// Parsing at a Gigabyte per Second", 2021).
func eightDigits(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8 // each even byte: its pair as a number
	return ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

var smallPow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat is Clinger's fast path: when man is below 2^53, so that
// float64(man) is exact, and 10^|exp10| is a float64 too (or man ×
// 10^exp10 still fits in 15 digits after moving a few zeros into it),
// one IEEE multiply or divide of two exact operands rounds correctly,
// which is strconv's answer. These are strconv's atof64exact bounds but
// one: it stops man at 2^52, a bit short of what is exact, and the bit
// between takes a quarter of the generator's tokens off Eisel–Lemire.
func exactFloat(man uint64, exp10 int) (f float64, ok bool) {
	if man>>53 != 0 {
		return 0, false
	}
	f = float64(man)
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0 && exp10 <= 15+22:
		if exp10 > 22 {
			f *= exactPow10[exp10-22]
			exp10 = 22
		}
		if f > 1e15 {
			return 0, false
		}
		return f * exactPow10[exp10], true
	case exp10 < 0 && exp10 >= -22:
		return f / exactPow10[-exp10], true
	}
	return 0, false
}

// pow10[e-pow10Min] is 10^e as a 128-bit mantissa with its top bit
// set, rounded down, {low, high} words, for every power of ten that
// takes a 64-bit mantissa into float64's normal range — the window and
// the values of strconv's own table. 11 KB, computed exactly at
// start-up in about 0.2 ms with nothing kept on the heap.
const pow10Min, pow10Max = -348, 347

var pow10 [pow10Max - pow10Min + 1][2]uint64

func init() {
	p, m, hi := big.NewInt(1), new(big.Int), new(big.Int)
	set := func(e int) { // from m < 2^128
		pow10[e-pow10Min] = [2]uint64{m.Uint64(), hi.Rsh(m, 64).Uint64()}
	}
	for e := 0; e <= -pow10Min; e++ { // p == 10^e, of n bits
		n := uint(p.BitLen())
		if e <= pow10Max {
			m.Rsh(m.Lsh(p, 128), n)
			set(e)
		}
		if e > 0 { // 2^(n-1) < 10^e < 2^n puts the quotient in (2^127, 2^128)
			m.Quo(m.Lsh(big.NewInt(1), n+127), p)
			set(-e)
		}
		p.Mul(p, big.NewInt(10))
	}
}

// eiselLemire rounds man × 10^exp10 to the nearest float64 with one,
// rarely two, 64×64→128 multiplies against pow10, or reports that it
// cannot tell. It is strconv's eiselLemire64 (Go's
// src/strconv/eisel_lemire.go explains every step), which ParseFloat
// trusts on the same inputs.
func eiselLemire(man uint64, exp10 int) (f float64, ok bool) {
	if man == 0 {
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10[exp10-pow10Min]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz) // biased; 217706/65536 ≈ log2(10)
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The nine bits below the mantissa may still carry: bring in
		// the table's low word.
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	mant := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // half-way between two floats, as far as 128 bits show
	}
	mant = (mant + mant&1) >> 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, or beyond MaxFloat64
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
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
// payload does not define — and returns the offset past it. depth
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

// endOfBody checks that only whitespace follows the decoded value.
func endOfBody(b []byte, i int) error {
	if i = skipSpace(b, i); i != len(b) {
		return codecErr(b, i, "data after the object")
	}
	return nil
}

func codecErr(b []byte, i int, msg string) error {
	if i >= len(b) {
		return fmt.Errorf("%s at offset %d, where the body ends", msg, i)
	}
	return fmt.Errorf("%s at offset %d, found %q", msg, i, b[i])
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

// answerFields are InferResponse's JSON names, in its field order; the
// last three, its flags, are omitted when false. fields points at the
// fields of r in the same order, for the answer writer and reader.
var answerFields = [...]string{"subnet", "pred", "logits", "macs", "priority", "deadline_met",
	"queue_wait_ms", "latency_ms", "cache_hit", "resumed", "early_exit"}

func (r *InferResponse) fields() [len(answerFields)]any {
	return [...]any{&r.Subnet, &r.Pred, &r.Logits, &r.MACs, &r.Priority, &r.DeadlineMet,
		&r.QueueWaitMs, &r.LatencyMs, &r.CacheHit, &r.Resumed, &r.EarlyExit}
}

// appendInferResponse appends res as json.NewEncoder(w).Encode writes
// it, byte for byte: field order, omitempty, number forms and the
// trailing newline. A value that is not finite — logits an overflowing
// input drove to NaN — has no JSON form, and the error names it.
func appendInferResponse(dst []byte, res InferResponse) ([]byte, error) {
	sep := byte('{')
	for f, p := range res.fields() {
		if flag, ok := p.(*bool); ok && f >= len(answerFields)-3 && !*flag {
			continue
		}
		dst = append(append(append(dst, sep, '"'), answerFields[f]...), '"', ':')
		sep = ','
		switch p := p.(type) {
		case *int:
			dst = strconv.AppendInt(dst, int64(*p), 10)
		case *int64:
			dst = strconv.AppendInt(dst, *p, 10)
		case *bool:
			dst = strconv.AppendBool(dst, *p)
		case *float64:
			if dst = appendFloat(dst, *p); math.IsNaN(*p) || math.IsInf(*p, 0) {
				return dst, fmt.Errorf("%s is %v, which JSON cannot carry", answerFields[f], *p)
			}
		case *[]float64:
			if *p == nil {
				dst = append(dst, nullLit...)
				break
			}
			dst = append(dst, '[')
			for i, v := range *p {
				if i > 0 {
					dst = append(dst, ',')
				}
				if dst = appendFloat(dst, v); math.IsNaN(v) || math.IsInf(v, 0) {
					return dst, fmt.Errorf("logits[%d] is %v, which JSON cannot carry", i, v)
				}
			}
			dst = append(dst, ']')
		}
	}
	return append(dst, "}\n"...), nil
}

// appendFloat appends f as encoding/json writes a float64 — the ES6
// number form: shortest round trip, an exponent only below 1e-6 and
// from 1e21, written e-7 rather than e-07.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// decodeInferResponse reads an answer the way encoding/json reads one
// into a zero InferResponse, with the request reader's grammar, key
// matching and numbers (FuzzDecodeInferResponse pins the two together)
// and nothing but whitespace after it. Logits is its one allocation.
func decodeInferResponse(b []byte) (res InferResponse, err error) {
	fields := res.fields()
	var logits floatSlots
	err = decodeObject(b, answerFields[:], func(field, i int) (int, error) {
		if bytes.HasPrefix(b[i:], nullLit) {
			// encoding/json leaves a field alone, but drops a slice.
			if p, ok := fields[field].(*[]float64); ok {
				*p, logits.live = nil, 0
			}
			return i + len(nullLit), nil
		}
		var err error
		switch p := fields[field].(type) {
		case *[]float64:
			*p, _, i, err = logits.decode(b, i)
		case *float64, *int64, *int:
			i, err = decodeNumber(b, i, p)
		case *bool:
			switch {
			case bytes.HasPrefix(b[i:], []byte("true")):
				*p, i = true, i+len("true")
			case bytes.HasPrefix(b[i:], []byte("false")):
				*p, i = false, i+len("false")
			default:
				err = codecErr(b, i, "want true or false")
			}
		}
		return i, err
	})
	if err != nil {
		return InferResponse{}, fmt.Errorf("infer answer: %w", err)
	}
	return res, nil
}
