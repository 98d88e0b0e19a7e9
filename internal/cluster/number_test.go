package cluster

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// hardNumbers are tokens the reader must not get wrong and mostly
// cannot decide itself: exact half-way cases, the edges of the normal
// and subnormal ranges, mantissas of 19 digits and more with zero and
// non-zero tails, exponents that overflow an int. They seed both fuzz
// targets and open the differential test.
var hardNumbers = []string{
	`0`, `-0`, `0.0`, `-0.0e0`, `0e99999999999999999999`, `-0e-99999999999999999999`, `0.000e+400`,
	`1e400`, `-1e400`, `1e309`, `1e308`, `1e-400`, `1e99999999999999999999`, `1e-99999999999999999999`,
	`9007199254740993`, `9007199254740992`, `9007199254740991`, `9007199254740995`, `18014398509481986`,
	`9007199254740993.0000000000000000000`, `9007199254740993.0000000000000000001`, `9007199254740992.9999999999999999999`,
	`720575940379279e2`, `72057594037927900`, `9007199254740993e-3`, `4503599627370497.5`,
	`1.7976931348623157e308`, `1.7976931348623158e308`, `1.7976931348623159e308`, `17976931348623157e292`,
	`1.797693134862315807e308`, `1.797693134862315808e308`, `179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497791.9999999999999999999999999999999999999999999999999999999999999999999`,
	`2.2250738585072014e-308`, `2.2250738585072011e-308`, `2.2250738585072012e-308`, `2.2250738585072009e-308`,
	`2.225073858507201136057409796709131975934819546351645648023426109724822222021076945516529523908135087914149158913039621106870086438694594645527657207407820621743379988141063267329253552286881372149012981122451451889849057222307285255133155755015914397476397983411801999323962548289017107081850690630666655994938275772572015763062690663332647565300009245888316433037779791869612049497390377829704905051080609940730262937128958950003583799967207254304360284078895771796150945516748243471030702609144621572289880258182545180325707018860872113128079512233426288368622321503775666622503982534335974568884423900265498198385487948292206894721689831099698365846814022854243330660339850886445804001034933970427567186443383770486037861622771738545623065874679014086723327636718751234567890123456789012345678901e-308`,
	`4.9e-324`, `5e-324`, `2.4e-324`, `2.5e-324`, `2.4703282292062327e-324`, `2.4703282292062328e-324`, `8.5e-324`, `7.4e-324`, `1e-323`, `2.2250738585072e-308`,
	`1234567890123456789`, `9999999999999999999`, `18446744073709551615`, `18446744073709551616`, `12345678901234567890`, `12345678901234567891`,
	`1234567890123456789000`, `1234567890123456789001`, `123456789012345678.90`, `123456789012345678.91`, `0.1234567890123456789`, `0.12345678901234567890`,
	`0.12345678901234567891`, `0.01234567890123456789`, `0.001234567890123456789`, `0.0001234567890123456789e-5`, `1.0000000000000000000`, `1.00000000000000000000000001`,
	`10000000000000000000000000000000`, `10000000000000000000000000000001`, `0.1234567890123456789012345678901234567890`, `123456789012345678901234567890`,
	`0.000000000000000000000000000000000000000000000000000000000000000000000123`, `0.00000000000000000000`, `0.00000000000000000001`, `100000000000000000000e-20`,
	`1e347`, `1e-348`, `1e-349`, `12345e343`, `1.5e-345`, `6.02214076e23`, `1e22`, `1e23`, `8.41e21`, `5e-20`, `0.1`, `0.3`, `0.30000000000000004`, `1E+2`, `1e+06`, `1E-2`,
	`0.500000000000000166533453693773481063544750213623046875`, `3.4028235e38`, `1.17549435e-38`, `1e-45`, `16777217`, `0.333333343`,
}

// refScanNumber is the token scanner the codec had before the reader:
// the JSON number grammar and nothing else, kept as the oracle for
// where a token ends.
func refScanNumber(b []byte, i int) int {
	skipDigits := func(i int) int {
		for i < len(b) && isDigit(b[i]) {
			i++
		}
		return i
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	end := skipDigits(i)
	if end == i {
		return -1
	}
	if b[i] == '0' {
		end = i + 1
	}
	if i = end; i < len(b) && b[i] == '.' {
		if end = skipDigits(i + 1); end == i+1 {
			return -1
		}
		i = end
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if end = skipDigits(i); end == i {
			return -1
		}
		i = end
	}
	return i
}

// readNumber is parseFloat short of its fallback: what the reader makes
// of the token at b[i] by itself, and whether it decided.
func readNumber(b []byte, i int) (f float64, end int, exact bool) {
	man, exp10, neg, end, exact := scanDecimal(b, i)
	if exact {
		if f, exact = exactFloat(man, exp10); !exact {
			f, exact = eiselLemire(man, exp10)
		}
	}
	if neg {
		f = -f
	}
	return f, end, exact
}

// shortRoom follows a token in the copy checkNumber hands shortFloat,
// which turns away any token that starts within 27 bytes of the end.
// roomy holds that copy; no caller of checkNumber runs in parallel.
var shortRoom, roomy = bytes.Repeat([]byte{' '}, 27), []byte(nil)

// checkNumber holds the reader to strconv on whatever number b starts
// with: the token ends where the old scanner ended it, an answer the
// reader gives itself is ParseFloat's bit for bit, and parseFloat —
// reader plus fallback — agrees with ParseFloat on value and on error
// either way. shortFloat, on b with room after it, may turn the token
// away, and must otherwise agree on the end and the bits too. It
// returns whether there was a token, whether the reader decided it, and
// whether shortFloat took it.
func checkNumber(t testing.TB, b []byte) (isNumber, exact, short bool) {
	t.Helper()
	want := refScanNumber(b, 0)
	f, end, exact := readNumber(b, 0)
	got, end2, err := parseFloat(b, 0)
	if end != want || end2 != want {
		t.Fatalf("%q: token ends at %d (readNumber) / %d (parseFloat), the grammar says %d", b, end, end2, want)
	}
	roomy = append(append(roomy[:0], b...), shortRoom...)
	fs, end3, short := shortFloat(roomy, 0)
	if want < 0 {
		if exact || short || scanNumber(b, 0) != -1 {
			t.Fatalf("%q is not a number, yet exact=%v short=%v scanNumber=%d", b, exact, short, scanNumber(b, 0))
		}
		return false, false, false
	}
	ref, refErr := strconv.ParseFloat(string(b[:want]), 64)
	if exact && (refErr != nil || math.Float64bits(f) != math.Float64bits(ref)) {
		t.Fatalf("%q: reader decided %v (%#x), strconv says %v (%#x, err %v)", b[:want], f, math.Float64bits(f), ref, math.Float64bits(ref), refErr)
	}
	if (err == nil) != (refErr == nil) || math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("%q: parseFloat %v (%#x, err %v), strconv %v (%#x, err %v)", b[:want], got, math.Float64bits(got), err, ref, math.Float64bits(ref), refErr)
	}
	if short && (end3 != want || refErr != nil || math.Float64bits(fs) != math.Float64bits(ref)) {
		t.Fatalf("%q: shortFloat %v (%#x) ending at %d, strconv %v (%#x, err %v) ending at %d", b[:want], fs, math.Float64bits(fs), end3, ref, math.Float64bits(ref), refErr, want)
	}
	return true, exact, short
}

// TestInputNumbersMatchStrconv is the differential test on the traffic
// the service sees and on everything around it: over ten million
// tokens, each bitwise against strconv.ParseFloat. It also measures how
// often the reader hands a token of the benchmark generator's form to
// strconv, and fails when that is more than one in a thousand: the fast
// path has to be the path the workloads take.
func TestInputNumbersMatchStrconv(t *testing.T) {
	scale := 1 // ci.sh runs the full count without the race detector
	if testing.Short() || raceEnabled {
		scale = 20
	}
	for _, s := range hardNumbers {
		if ok, _, _ := checkNumber(t, []byte(s)); !ok {
			t.Fatalf("%q is not a JSON number", s)
		}
		checkNumber(t, []byte("-"+s))
	}
	if _, exact, _ := checkNumber(t, []byte(`9007199254740993`)); exact {
		t.Fatal("2^53+1 is exactly half-way: the reader must not decide it")
	}

	r := rand.New(rand.NewSource(20))
	buf := make([]byte, 0, 512)
	digits := func(n int) {
		for ; n > 0; n-- {
			buf = append(buf, byte('0'+r.Intn(10)))
		}
	}
	anyFloat := func() float64 { // uniform over the bit patterns of finite floats
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	classes := []struct {
		name  string
		count int
		limit float64 // highest fallback share tolerated; 1 when only measured
		next  func()
	}{
		{"generator", 2_500_000, 0.001, func() {
			buf = strconv.AppendFloat(buf, r.NormFloat64(), 'g', -1, 64)
		}},
		{"scaled-1e60", 1_500_000, 1, func() { // n+½ near 2^53 is a float itself, which a rounded-down product cannot show
			buf = strconv.AppendFloat(buf, r.NormFloat64()*math.Pow10(r.Intn(121)-60), 'g', -1, 64)
		}},
		{"whole-range", 2_000_000, 1, func() { // 1 in 2048 exponents is subnormal
			buf = strconv.AppendFloat(buf, anyFloat(), 'g', -1, 64)
		}},
		{"float32-shortest", 1_000_000, 1, func() { // short mantissa × exact power of ten: exact products and exact ties
			buf = strconv.AppendFloat(buf, float64(float32(r.NormFloat64()*math.Pow10(r.Intn(41)-20))), 'g', -1, 32)
		}},
		{"e-form", 1_000_000, 1, func() {
			buf = strconv.AppendFloat(buf, anyFloat(), 'e', r.Intn(25), 64)
		}},
		{"f-form", 1_000_000, 1, func() {
			buf = strconv.AppendFloat(buf, r.NormFloat64()*math.Pow10(r.Intn(41)-20), 'f', r.Intn(25), 64)
		}},
		{"long-mantissa", 1_500_000, 1, func() { // 17–26 digits, dot anywhere, tail zeroed half the time
			n, keep := 17+r.Intn(10), 17+r.Intn(4)
			if r.Intn(2) == 0 {
				buf = append(buf, '-')
			}
			buf = append(buf, byte('1'+r.Intn(9)))
			dot := r.Intn(n)
			for k := 1; k < n; k++ {
				if k == dot {
					buf = append(buf, '.')
				}
				if r.Intn(2) == 0 && k >= keep {
					buf = append(buf, '0')
				} else {
					digits(1)
				}
			}
			if dot == 0 {
				buf = append(buf, '.', '0')
			}
			if r.Intn(3) == 0 {
				buf = strconv.AppendInt(append(buf, 'e'), int64(r.Intn(700)-350), 10)
			}
		}},
		{"leading-zeros", 500_000, 1, func() {
			buf = append(buf, '0', '.')
			buf = append(buf, strings.Repeat("0", r.Intn(40))...)
			digits(1 + r.Intn(22))
			if r.Intn(4) == 0 {
				buf = strconv.AppendInt(append(buf, 'E'), int64(r.Intn(60)-30), 10)
			}
		}},
	}
	total := 0
	for _, c := range classes {
		n, fell, long := c.count/scale, 0, 0
		for k := 0; k < n; k++ {
			buf = buf[:0]
			c.next()
			ok, exact, short := checkNumber(t, buf)
			if !ok {
				t.Fatalf("%s: %q is not a JSON number", c.name, buf)
			}
			if !exact {
				fell++
			}
			if !short {
				long++
			}
		}
		total += n
		share, missed := float64(fell)/float64(n), float64(long)/float64(n)
		t.Logf("%-17s %8d tokens, %6d to strconv (%.4f%%), %7d past shortFloat (%.2f%%)", c.name, n, fell, 100*share, long, 100*missed)
		if share > c.limit {
			t.Errorf("%s: %.3f%% of tokens fell back to strconv, limit %.1f%%", c.name, 100*share, 100*c.limit)
		}
		if c.limit < 1 && missed > c.limit { // the generator's form is shortFloat's to take
			t.Errorf("%s: %.3f%% of tokens missed shortFloat, limit %.1f%%", c.name, 100*missed, 100*c.limit)
		}
	}
	if scale == 1 && total < 10_000_000 {
		t.Fatalf("only %d tokens checked, want at least ten million", total)
	}
}

// TestBenchmarkBodiesTakeTheFastPath measures, on whole request bodies
// of the shape the benchmark sends, how many tokens miss each fast path
// — shortFloat, which the array reader tries first, and the reader's
// own rounding behind it — and holds the one-in-a-thousand line on
// both.
func TestBenchmarkBodiesTakeTheFastPath(t *testing.T) {
	body, _ := benchBody(768 * 64)
	i, n, fell, long := bytes.IndexByte(body, '[')+1, 0, 0, 0
	for body[i-1] != ']' {
		_, end, exact := readNumber(body, i)
		if end < 0 {
			t.Fatalf("not a number at offset %d", i)
		}
		if _, end2, short := shortFloat(body, i); !short {
			long++
		} else if end2 != end {
			t.Fatalf("shortFloat ends the token at offset %d at %d, the reader at %d", i, end2, end)
		}
		if n++; !exact {
			fell++
		}
		i = end + 1
	}
	t.Logf("of %d generator-form tokens, %d missed shortFloat and %d went to strconv", n, long, fell)
	if n != 768*64 || fell*1000 > n || long*1000 > n {
		t.Fatalf("%d tokens read, %d missed shortFloat, %d fell back: want %d and at most one in a thousand each", n, long, fell, 768*64)
	}
}

// TestPow10Table checks the start-up table three ways: by its defining
// property against math/big (each row is the top 128 bits of its power
// of ten, rounded down, top bit set), against rows copied from strconv's
// table, and row for row against $GOROOT/src/strconv/eisel_lemire.go
// where the toolchain's source is on the machine.
func TestPow10Table(t *testing.T) {
	one := big.NewInt(1)
	for e := pow10Min; e <= pow10Max; e++ {
		row := pow10[e-pow10Min]
		if row[1]>>63 != 1 {
			t.Fatalf("1e%d: top bit clear in %#x", e, row[1])
		}
		m := new(big.Int).SetUint64(row[1])
		m.Or(m.Lsh(m, 64), new(big.Int).SetUint64(row[0]))
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		// lo ≤ hi < lo + step is "m is the quotient, rounded down".
		lo, hi, step := m, p, one
		switch n := p.BitLen(); {
		case e < 0: // m·10^-e ≤ 2^(n+127) < (m+1)·10^-e
			lo, hi, step = new(big.Int).Mul(m, p), new(big.Int).Lsh(one, uint(n+127)), p
		case n > 128: // m·2^(n-128) ≤ 10^e < (m+1)·2^(n-128)
			lo, step = new(big.Int).Lsh(m, uint(n-128)), new(big.Int).Lsh(one, uint(n-128))
		default:
			hi = new(big.Int).Lsh(p, uint(128-n))
		}
		if lo.Cmp(hi) > 0 || new(big.Int).Add(lo, step).Cmp(hi) <= 0 {
			t.Fatalf("1e%d: {%#x, %#x} is not the power's top 128 bits rounded down", e, row[0], row[1])
		}
	}
	for e, want := range map[int][2]uint64{
		-348: {0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		-336: {0xFD1B1B2308169B25, 0xE3E27A444D8D98B7},
		0:    {0, 0x8000000000000000},
		43:   {0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		347:  {0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if pow10[e-pow10Min] != want {
			t.Fatalf("1e%d = %#x, strconv has %#x", e, pow10[e-pow10Min], want)
		}
	}
	src, err := os.ReadFile(filepath.Join(runtime.GOROOT(), "src", "strconv", "eisel_lemire.go"))
	if err != nil {
		t.Logf("strconv's source is not here (%v): full comparison skipped", err)
		return
	}
	rows := regexp.MustCompile(`\{0x([0-9A-F]{16}), 0x([0-9A-F]{16})\}, // 1e(-?\d+)`).FindAllSubmatch(src, -1)
	if len(rows) != len(pow10) {
		t.Fatalf("found %d rows in strconv's table, want %d", len(rows), len(pow10))
	}
	for _, m := range rows {
		lo, _ := strconv.ParseUint(string(m[1]), 16, 64)
		hi, _ := strconv.ParseUint(string(m[2]), 16, 64)
		e, _ := strconv.Atoi(string(m[3]))
		if pow10[e-pow10Min] != [2]uint64{lo, hi} {
			t.Fatalf("1e%d = %#x, strconv has {%#x, %#x}", e, pow10[e-pow10Min], lo, hi)
		}
	}
}

// FuzzInputNumber runs the reader on a bare token: checkNumber's
// contract on any bytes, plus the two directions of "the reader says
// when it falls back" that can be stated without the reader — it must
// decide a zero and a plain integer of up to 15 digits, and must not
// decide a token of more than 19 significant digits, a subnormal, or
// anything strconv calls out of range.
func FuzzInputNumber(f *testing.F) {
	for _, s := range hardNumbers {
		f.Add([]byte(s))
		f.Add([]byte("-" + s + ","))
	}
	for _, s := range []string{``, `-`, `+1`, `.5`, `1.`, `1.e2`, `1e`, `1e+`, `01`, `-01.5`, `0x1p3`, `NaN`, `Infinity`, `1_0`, `١`, `1e5.5`, `1.5.5`, `1ee5`, `1e+-5`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ok, exact, _ := checkNumber(t, b)
		if !ok {
			return
		}
		tok := b[:refScanNumber(b, 0)]
		v, err := strconv.ParseFloat(string(tok), 64)
		mant := bytes.TrimLeft(tok, "-")
		if k := bytes.IndexAny(mant, "eE"); k >= 0 {
			mant = mant[:k]
		}
		plain := len(mant) == len(bytes.TrimLeft(tok, "-")) && !bytes.ContainsRune(mant, '.')
		sig := bytes.TrimLeft(bytes.ReplaceAll(mant, []byte("."), nil), "0")
		switch {
		case len(sig) == 0 || plain && len(sig) <= 15:
			if !exact {
				t.Fatalf("%q: a zero or a short integer went to strconv", tok)
			}
		case len(sig) > 19, err != nil, v != 0 && math.Abs(v) < 0x1p-1022:
			if exact {
				t.Fatalf("%q: the reader cannot have decided this one", tok)
			}
		}
	})
}
