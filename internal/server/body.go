package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// A POST /series body is mostly numbers, which encoding/json spends its time
// reflecting over rather than parsing. decodeSeries reads the plain shape in
// one pass, converting each number as it checks its grammar (float says
// which numbers convert there; the rest take strconv.ParseFloat over the
// bytes already delimited). Anything else (an escape, another key spelling,
// an unknown or repeated key, null, a number encoding/json rejects, trailing
// bytes) is off the shape, and the same bytes go through json.Decoder as
// before.

// seriesKeys are the keys of the plain shape: a request's are bits 0-2 of a
// key set, a series' bits 3-6.
var seriesKeys = [...]string{"insert", "insert_ids", "delete", "values", "samples", "sigma", "label"}

// decodeSeriesBody is DecodeBody for a *SeriesRequest. Its buffer grows by
// doubling as bytes arrive, as json.Decoder's does; it is never presized from
// the Content-Length a client declares.
func decodeSeriesBody(w http.ResponseWriter, body io.Reader, v *SeriesRequest) bool {
	var buf bytes.Buffer
	var rest io.Reader = &buf
	if _, err := buf.ReadFrom(body); err != nil {
		// Cut short, past MaxBodyBytes or by the client: json.Decoder reads
		// what arrived, then meets the same error.
		rest = io.MultiReader(&buf, errReader{err})
	} else if req, ok := decodeSeries(buf.Bytes()); ok {
		*v = req
		return true
	}
	return answerDecode(w, json.NewDecoder(rest).Decode(v))
}

// errReader fails every read with its error.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// offShape is the panic that ends a read off the plain shape.
type offShape struct{}

// decodeSeries decodes a body of the plain shape, reflect.DeepEqual to what
// encoding/json decodes from it, or reports that the body is off the shape.
func decodeSeries(b []byte) (req SeriesRequest, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, off := r.(offShape); !off {
				panic(r)
			}
			req, ok = SeriesRequest{}, false
		}
	}()
	p := &seriesReader{b: b}
	p.object(0b0000111, func(k int) {
		switch seriesKeys[k] {
		case "insert":
			req.Insert = []SeriesJSON{}
			p.seq('[', ']', func() { req.Insert = append(req.Insert, p.series()) })
		case "insert_ids":
			req.InsertIDs = p.ints()
		case "delete":
			req.Delete = p.ints()
		}
	})
	return req, !p.space() // nothing but whitespace after the object
}

// seriesReader walks a body. vals and cuts are scratch reused across it: the
// numbers of an array, and where each samples row ends, land there before
// they are copied out at their exact size.
type seriesReader struct {
	b    []byte
	i    int
	vals []float64
	cuts []int
}

func (p *seriesReader) series() (s SeriesJSON) {
	p.object(0b1111000, func(k int) {
		switch seriesKeys[k] {
		case "values":
			p.vals = p.vals[:0]
			p.floats()
			s.Values = clone(p.vals)
		case "samples": // the rows share one backing array
			p.vals, p.cuts = p.vals[:0], p.cuts[:0]
			p.seq('[', ']', func() {
				p.floats()
				p.cuts = append(p.cuts, len(p.vals))
			})
			flat, lo := clone(p.vals), 0
			s.Samples = make([][]float64, len(p.cuts))
			for t, hi := range p.cuts {
				s.Samples[t], lo = flat[lo:hi:hi], hi
			}
		case "sigma":
			s.Sigma = p.float()
		case "label":
			s.Label = p.int()
		}
	})
	return s
}

// floats appends an array of numbers to p.vals.
func (p *seriesReader) floats() {
	p.seq('[', ']', func() { p.vals = append(p.vals, p.float()) })
}

func (p *seriesReader) ints() []int {
	p.cuts = p.cuts[:0]
	p.seq('[', ']', func() { p.cuts = append(p.cuts, p.int()) })
	return clone(p.cuts)
}

// object reads an object whose keys are in the set keys, each at most once,
// calling value with a key's index to read what follows its colon.
func (p *seriesReader) object(keys uint, value func(k int)) {
	p.seq('{', '}', func() {
		p.expect('"')
		n, k := bytes.IndexByte(p.b[p.i:], '"'), 0
		for n >= 0 && k < len(seriesKeys) && (keys&(1<<k) == 0 || seriesKeys[k] != string(p.b[p.i:p.i+n])) {
			k++
		}
		if n < 0 || k == len(seriesKeys) {
			panic(offShape{}) // another key, a repeat, an escape, or no closing quote
		}
		keys &^= 1 << k
		p.i += n + 1
		p.expect(':')
		value(k)
	})
}

// seq reads open, elements separated by commas, and close, calling elem at
// each element.
func (p *seriesReader) seq(open, close byte, elem func()) {
	p.expect(open)
	for n := 0; p.peek() != close; n++ {
		if n > 0 {
			p.expect(',')
		}
		elem()
	}
	p.i++
}

// space skips whitespace and reports whether bytes are left.
func (p *seriesReader) space() bool {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
	return p.i < len(p.b)
}

// peek returns the next byte after whitespace.
func (p *seriesReader) peek() byte {
	if !p.space() {
		panic(offShape{})
	}
	return p.b[p.i]
}

func (p *seriesReader) expect(c byte) {
	if p.peek() != c {
		panic(offShape{})
	}
	p.i++
}

// float reads a number as encoding/json does for a float64 field, converted
// in the pass that checks its grammar where that is exact: a decimal with no
// exponent whose digits, read as one integer m, stay below 2^52 and with at
// most 22 of them after the point is m / 10^k with both operands exact in
// float64, so one division rounds it correctly — strconv's own exact path,
// so ParseFloat's bits, -0 included. Any other token (an exponent, more
// digits) goes to strconv.ParseFloat.
func (p *seriesReader) float() float64 {
	tok, m, k, exact := p.number()
	if !exact {
		return must(strconv.ParseFloat(string(tok), 64))
	}
	f := float64(m) / pow10[k]
	if tok[0] == '-' {
		f = -f
	}
	return f
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// int parses a number with the strconv call encoding/json makes for an int
// field.
func (p *seriesReader) int() int {
	tok, _, _, _ := p.number()
	return int(must(strconv.ParseInt(string(tok), 10, strconv.IntSize)))
}

// number reads a number's bytes, checked against the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, where strconv is laxer: a
// leading '+', a leading zero, a '.' without a digit after it. The exponent
// is left to strconv. In the same pass it reads the digits as one integer m
// (held at 2^53 once past it) and counts the k after the point; exact
// reports a token with no exponent, m below 2^52 and k at most 22 — one whose
// value is ±m / 10^k exactly.
func (p *seriesReader) number() (tok []byte, m uint64, k int, exact bool) {
	p.peek()
	b, i := p.b, p.i
	if b[i] == '-' {
		i++
	}
	if i == len(b) || !digit(b[i]) || b[i] == '0' && i+1 < len(b) && digit(b[i+1]) {
		panic(offShape{})
	}
	for ; i < len(b) && digit(b[i]); i++ {
		m = min(10*m+uint64(b[i]-'0'), 1<<53)
	}
	if i < len(b) && b[i] == '.' {
		point := i
		for i++; i < len(b) && digit(b[i]); i++ {
			m = min(10*m+uint64(b[i]-'0'), 1<<53)
		}
		if k = i - point - 1; k == 0 {
			panic(offShape{}) // a '.' without a digit after it
		}
	}
	exact = m < 1<<52 && k < len(pow10)
	// An exponent, or a tail strconv refuses (another '.', a stray sign):
	// its bytes are the token's too.
	for ; i < len(b) && (digit(b[i]) || b[i] == '.' || b[i]|0x20 == 'e' || b[i] == '-' || b[i] == '+'); i++ {
		exact = false
	}
	tok = b[p.i:i]
	p.i = i
	return tok, m, k, exact
}

func digit(c byte) bool { return '0' <= c && c <= '9' }

// must passes on what strconv parsed; where it failed, encoding/json reports
// a type error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(offShape{})
	}
	return v
}

// clone copies s at its exact size, non-nil when empty, as encoding/json
// leaves an empty array.
func clone[T any](s []T) []T {
	return append(make([]T, 0, len(s)), s...)
}
