package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	ramiel "repro"
)

// The request side of POST /v1/infer, shared by the daemon's handler and the
// fleet front's. A body is read once into a pooled buffer and decoded by a
// single-pass scanner that writes tensor data straight into its []float32;
// whatever the scanner's narrow grammar declines goes to encoding/json
// unchanged, so odd input behaves as it always has. DESIGN.md "Wire path"
// has the buffer-ownership and bit-exactness rules.

func badRequest(err error) *Refusal {
	return &Refusal{Status: http.StatusBadRequest, Err: err}
}

// bodyPool holds request-body buffers between requests. It is the only place
// they are retained: a buffer sized for a 1.5 MB body kept on the Server would
// count as live heap forever, the pool gives it back at the next collection.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadInferRequest reads the body of a POST /v1/infer (at most maxBody bytes
// when maxBody > 0), decodes it and checks what can be checked without the
// model: a model name, and either inputs whose shapes match their data or a
// seed. feeds is nil in seed mode; a refused body comes back as a *Refusal.
// The body buffer is back in its pool when this returns; the request and the
// feeds own all their memory.
func ReadInferRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (req InferRequest, feeds ramiel.Env, err error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	body := r.Body
	if maxBody > 0 {
		body = http.MaxBytesReader(w, body, maxBody)
		// Size the buffer once from the declared length — but only a length
		// the cap admits, so a client cannot make the server allocate by
		// declaring a body it never sends.
		if n := r.ContentLength; n > 0 && n <= maxBody {
			buf.Grow(int(n) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return req, nil, &Refusal{
				Status: http.StatusRequestEntityTooLarge,
				Cause:  CauseBodyTooLarge.String(),
				Err:    fmt.Errorf("%w (limit %d bytes)", ErrBodyTooLarge, mbe.Limit),
			}
		}
		return req, nil, badRequest(fmt.Errorf("decoding request: %w", err))
	}
	if err := decodeInferBody(buf.Bytes(), &req); err != nil {
		return req, nil, badRequest(fmt.Errorf("decoding request: %w", err))
	}
	if req.Model == "" {
		return req, nil, badRequest(errors.New("missing \"model\""))
	}
	switch {
	case len(req.Inputs) > 0:
		feeds = make(ramiel.Env, len(req.Inputs))
		for name, tj := range req.Inputs {
			t, err := tj.toTensor()
			if err != nil {
				return req, nil, badRequest(fmt.Errorf("input %q: %w", name, err))
			}
			feeds[name] = t
		}
	case req.Seed == nil:
		return req, nil, badRequest(errors.New("provide \"inputs\" or \"seed\""))
	}
	return req, feeds, nil
}

// inferRequestFields is InferRequest without its UnmarshalJSON.
type inferRequestFields InferRequest

// plain returns r as a type encoding/json decodes with its own struct decoder.
// The type is declared here, under the old name, because the decoder's error
// texts carry it ("Go struct field InferRequest.model of type string").
func plain(r *InferRequest) any {
	type InferRequest inferRequestFields
	return (*InferRequest)(r)
}

// UnmarshalJSON makes json.Unmarshal use the same scanner the handlers call
// directly.
func (r *InferRequest) UnmarshalJSON(data []byte) error {
	if n, ok := scanInferRequest(data, r); ok && firstNonSpace(data[n:]) < 0 {
		return nil
	}
	return json.Unmarshal(data, plain(r))
}

// decodeInferBody decodes a whole request body: one JSON value, then nothing
// but whitespace. (json.Decoder, which the handlers used before, stopped at
// the end of the value and let `{...}garbage` through.) The fallback is the
// decoder the handlers always used, so its error texts are unchanged.
func decodeInferBody(data []byte, req *InferRequest) error {
	n, ok := scanInferRequest(data, req)
	if !ok {
		dec := json.NewDecoder(bytes.NewReader(data))
		if err := dec.Decode(plain(req)); err != nil {
			return err
		}
		n = int(dec.InputOffset())
	}
	if i := firstNonSpace(data[n:]); i >= 0 {
		return fmt.Errorf("invalid character %q after top-level value", data[n+i])
	}
	return nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func firstNonSpace(b []byte) int {
	for i, c := range b {
		if !isSpace(c) {
			return i
		}
	}
	return -1
}

// scanner walks the request envelope. Its grammar is the JSON a client's
// encoder produces — the five known keys spelled exactly, once each, plain
// ASCII strings, integers where integers go, arrays of numbers — and every
// method reports false on anything else. False means "not handled here", never
// "invalid": the caller re-decodes with encoding/json, which either accepts
// the input its own way (escapes, case-folded or unknown keys, nulls,
// duplicates) or produces the error.
type scanner struct {
	data []byte
	i    int
}

// scanInferRequest decodes the value at the start of data into req, setting
// fields as it meets them as encoding/json does, and returns the offset just
// past the value. When ok is false the fields it got through are written;
// decoding the same data again with encoding/json writes them again.
func scanInferRequest(data []byte, req *InferRequest) (n int, ok bool) {
	s := scanner{data: data}
	if !s.eat('{') {
		return 0, false
	}
	const (
		model = 1 << iota
		inputs
		seed
		noBatch
		timeoutMs
	)
	seen := 0
	for first := true; ; first = false {
		more, ok := s.more(first, '}')
		if !ok {
			return 0, false
		}
		if !more {
			return s.i, true
		}
		key, ok := s.key()
		if !ok {
			return 0, false
		}
		s.space()
		field := 0
		switch string(key) {
		case "model":
			field = model
			var v []byte
			if v, ok = s.str(); ok {
				req.Model = string(v)
			}
		case "inputs":
			field = inputs
			ok = s.inputs(req)
		case "seed":
			field = seed
			var v uint64
			if v, ok = s.uint(); ok {
				req.Seed = &v
			}
		case "no_batch":
			field = noBatch
			var v bool
			if v, ok = s.bool(); ok {
				req.NoBatch = v
			}
		case "timeout_ms":
			field = timeoutMs
			var v int
			if v, ok = s.int(); ok {
				req.TimeoutMs = v
			}
		default:
			return 0, false
		}
		if !ok || seen&field != 0 {
			return 0, false
		}
		seen |= field
	}
}

func (s *scanner) space() {
	for s.i < len(s.data) && isSpace(s.data[s.i]) {
		s.i++
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// more steps to the next element of an object or array whose opening bracket
// has been consumed: it consumes the closing bracket (more = false) or, after
// the first element, the comma before the next one. "[1,]" and "[,1]" get
// past it and fail in the element parser.
func (s *scanner) more(first bool, closing byte) (more, ok bool) {
	if s.eat(closing) {
		return false, true
	}
	return true, first || s.eat(',')
}

// str consumes a string of printable ASCII without escapes and returns its
// bytes, which alias the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1], true
		case c < ' ' || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// key consumes an object member's name and its colon.
func (s *scanner) key() ([]byte, bool) {
	name, ok := s.str()
	return name, ok && s.eat(':')
}

func (s *scanner) bool() (v, ok bool) {
	rest := s.data[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// uint consumes the digits of a JSON integer: "0" or a run not starting with
// 0. A fraction or exponent after it is left for the caller's next step to
// trip over.
func (s *scanner) uint() (v uint64, ok bool) {
	start := s.i
	for ; s.i < len(s.data); s.i++ {
		d := uint64(s.data[s.i] - '0')
		if d > 9 || (s.i == start+1 && v == 0) {
			break
		}
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, s.i > start
}

func (s *scanner) int() (int, bool) {
	neg := s.i < len(s.data) && s.data[s.i] == '-'
	if neg {
		s.i++
	}
	u, ok := s.uint()
	if !ok || u > math.MaxInt {
		return 0, false
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}

func (s *scanner) inputs(req *InferRequest) bool {
	if !s.eat('{') {
		return false
	}
	if req.Inputs == nil {
		req.Inputs = map[string]TensorJSON{}
	}
	for first := true; ; first = false {
		more, ok := s.more(first, '}')
		if !ok || !more {
			return ok
		}
		name, ok := s.key()
		if !ok {
			return false
		}
		tj, ok := s.tensor()
		if _, dup := req.Inputs[string(name)]; !ok || dup {
			return false
		}
		req.Inputs[string(name)] = tj
	}
}

func (s *scanner) tensor() (tj TensorJSON, ok bool) {
	if !s.eat('{') {
		return tj, false
	}
	for first := true; ; first = false {
		more, ok := s.more(first, '}')
		if !ok || !more {
			return tj, ok
		}
		key, ok := s.key()
		if !ok {
			return tj, false
		}
		// Both arrays decode to non-nil slices, so nil means "not seen yet".
		switch string(key) {
		case "shape":
			if tj.Shape != nil {
				return tj, false
			}
			tj.Shape, ok = s.shape()
		case "data":
			if tj.Data != nil {
				return tj, false
			}
			tj.Data, ok = s.floats(ramiel.Shape(tj.Shape).Numel())
		default:
			return tj, false
		}
		if !ok {
			return tj, false
		}
	}
}

func (s *scanner) shape() ([]int, bool) {
	if !s.eat('[') {
		return nil, false
	}
	dims := make([]int, 0, 4)
	for first := true; ; first = false {
		more, ok := s.more(first, ']')
		if !ok || !more {
			return dims, ok
		}
		s.space()
		d, ok := s.int()
		if !ok {
			return nil, false
		}
		dims = append(dims, d)
	}
}

var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// floats consumes an array of numbers into a slice allocated once at want
// elements (the tensor's element count when "shape" came first and the array
// is long enough to hold that many; the slice grows by append otherwise). Every value has the bits
// strconv.ParseFloat(token, 32) gives, which is what encoding/json stores.
//
// Digits accumulate into a uint64 as they are scanned. When the mantissa is
// at most 2^53 and the decimal exponent within ±22, both are exact float64s
// and one multiply or divide is the correctly rounded float64 (Clinger's fast
// path). Narrowing that to float32 rounds a second time, which can only
// differ from rounding the decimal once when the float64 sits exactly half
// way between two float32s — low 29 mantissa bits 0x10000000 — because the
// first rounding may have landed there from either side. Those, and anything
// outside the fast path, go to strconv token by token. At these magnitudes
// (1e-22 to 9e37) float32 neither overflows nor goes subnormal.
func (s *scanner) floats(want int) ([]float32, bool) {
	if !s.eat('[') {
		return nil, false
	}
	data, i := s.data, s.i
	// A shape is a claim; the bytes of this array are what was sent. Each
	// element takes at least two of them, so the pre-size is bounded by the
	// distance to the next ']' — this array's, not the rest of the body, or a
	// body of many one-element tensors would allocate its length once each.
	end := bytes.IndexByte(data[i:], ']')
	if end < 0 {
		return nil, false
	}
	if most := end/2 + 1; want > most || want < 0 {
		want = most
	}
	out := make([]float32, 0, want)
	for first := true; ; first = false {
		for i < len(data) && isSpace(data[i]) {
			i++
		}
		if i < len(data) && data[i] == ']' && first {
			s.i = i + 1
			return out, true
		}
		start := i
		neg := i < len(data) && data[i] == '-'
		if neg {
			i++
		}
		var mant uint64 // wraps past 19 digits, and is then not used
		intStart := i
		if i < len(data) && data[i] == '0' {
			i++
		} else {
			for ; i < len(data) && data[i]-'0' <= 9; i++ {
				mant = mant*10 + uint64(data[i]-'0')
			}
		}
		digits := i - intStart
		if digits == 0 {
			return nil, false
		}
		exp10 := 0
		if i < len(data) && data[i] == '.' {
			i++
			frac := i
			for ; i < len(data) && data[i]-'0' <= 9; i++ {
				mant = mant*10 + uint64(data[i]-'0')
			}
			if i == frac {
				return nil, false
			}
			exp10 = frac - i
			digits += i - frac
		}
		if i < len(data) && data[i]|0x20 == 'e' {
			i++
			sign := 1
			if i < len(data) && (data[i] == '+' || data[i] == '-') {
				if data[i] == '-' {
					sign = -1
				}
				i++
			}
			e, estart := 0, i
			for ; i < len(data) && data[i]-'0' <= 9; i++ {
				if e < 1000 {
					e = e*10 + int(data[i]-'0')
				}
			}
			if i == estart {
				return nil, false
			}
			exp10 += sign * e
		}

		fast := digits <= 19 && mant <= 1<<53 && exp10 >= -22 && exp10 <= 22
		var f float64
		if fast {
			f = float64(mant)
			if exp10 < 0 {
				f /= pow10[-exp10]
			} else {
				f *= pow10[exp10]
			}
			if neg {
				f = -f
			}
			fast = math.Float64bits(f)&(1<<29-1) != 1<<28
		}
		if !fast {
			var err error
			if f, err = strconv.ParseFloat(string(data[start:i]), 32); err != nil {
				return nil, false
			}
		}
		out = append(out, float32(f))

		for i < len(data) && isSpace(data[i]) {
			i++
		}
		if i >= len(data) {
			return nil, false
		}
		switch data[i] {
		case ',':
			i++
		case ']':
			s.i = i + 1
			return out, true
		default:
			return nil, false
		}
	}
}
