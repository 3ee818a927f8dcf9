package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	ramiel "repro"
	"repro/internal/models"
)

// checkFloats decodes tokens as one "data" array and requires every value to
// have the bits strconv.ParseFloat(token, 32) gives — what encoding/json
// stores in a float32.
func checkFloats(t *testing.T, tokens []string) {
	t.Helper()
	s := scanner{data: []byte("[" + strings.Join(tokens, ",") + "]")}
	got, ok := s.floats(len(tokens))
	if !ok || len(got) != len(tokens) || s.i != len(s.data) {
		t.Fatalf("scanner declined or stopped early: ok=%v, %d of %d values, offset %d of %d",
			ok, len(got), len(tokens), s.i, len(s.data))
	}
	bad := 0
	for i, tok := range tokens {
		want, err := strconv.ParseFloat(tok, 32)
		if err != nil {
			t.Fatalf("token %q: %v", tok, err)
		}
		if g, w := math.Float32bits(got[i]), math.Float32bits(float32(want)); g != w {
			if bad++; bad <= 10 {
				t.Errorf("%q: got bits %08x (%g), strconv gives %08x (%g)", tok, g, got[i], w, float32(want))
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d of %d values differ", bad, len(tokens))
	}
}

// TestFloatBitsMatchStrconv is the bit-exactness contract of the tensor
// decoder on the inputs that can break it.
func TestFloatBitsMatchStrconv(t *testing.T) {
	t.Run("random float32 as encoding/json writes them", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		vals := make([]float32, 0, 1<<20)
		for len(vals) < cap(vals) {
			f := math.Float32frombits(rng.Uint32())
			if f32 := float64(f); !math.IsNaN(f32) && !math.IsInf(f32, 0) {
				vals = append(vals, f)
			}
		}
		enc, err := json.Marshal(vals)
		if err != nil {
			t.Fatal(err)
		}
		checkFloats(t, strings.Split(string(enc[1:len(enc)-1]), ","))
	})

	t.Run("edges", func(t *testing.T) {
		checkFloats(t, []string{
			"0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "0.000e+99", "1", "-1", "10", "0.1", "-0.25",
			"3.4028234663852886e38", "3.4028235e+38", "-3.4028235E38", "3.40282346638528859811704183484516925440e38",
			"1e-45", "1.401298464324817e-45", "-1e-45", "7e-46", "1e-46", "0.7e-45",
			"1.1754943508222875e-38", "1.1754942e-38", "5.877471754111438e-39", "1e-38", "1e-39", "1e-40", "9.999e-41",
			"1E+0", "1e+0", "1E-0", "1e-0", "1.5E+10", "1.5e-10", "2.5E10", "1e22", "1e23", "1e-22", "1e-23",
			"9007199254740992", "9007199254740993", "9007199254740992e22", "9007199254740993e-22",
			"123456789012345678", "1234567890123456789", "12345678901234567890", "123456789012345678901234567890",
			"0.1234567890123456789012345678901234567890", "1.00000000000000000000000000000000000001",
			"16777217", "16777217.0", "16777217.000000000000000000001", "16777216.99999999999999999999", "-16777219",
			"33554434", "33554438", "1.0000000596046448", "1.000000059604645", "1.0000001788139343",
			"1e-99999999999999999999", "0e99999999999999999999", "0.0e-99999999999999999999", "0.000000000000000000000000000000000000000000001e45",
			"1000000000000000000000000000000000000000e-39",
		})
	})

	// Decimals a hair off the midpoint between two adjacent float32s: their
	// nearest float64 often is the midpoint, and narrowing that would round
	// to even where rounding the decimal itself goes up or down.
	t.Run("forced rounding ties", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		var tokens []string
		onTie := 0
		for len(tokens) < 200_000 {
			bits := rng.Uint32()&0x7fffffff | 0x00800000 // a normal float32
			lo, hi := math.Float32frombits(bits), math.Float32frombits(bits+1)
			if !(lo >= 1e-20 && hi <= 1e20) { // also drops NaN and Inf
				continue
			}
			mid := (float64(lo) + float64(hi)) / 2
			for _, digits := range []int{13, 14, 15, 16} {
				tok := strconv.FormatFloat(mid, 'e', digits, 64)
				if f, _ := strconv.ParseFloat(tok, 64); f == mid {
					onTie++
				}
				tokens = append(tokens, tok)
			}
		}
		if onTie < len(tokens)/10 {
			t.Fatalf("only %d of %d tokens round onto a float32 midpoint; the generator is not testing ties", onTie, len(tokens))
		}
		checkFloats(t, tokens)
	})
}

// sameRequest reports whether two decoded requests agree on every field,
// floats compared by bits.
func sameRequest(a, b InferRequest) error {
	if a.Model != b.Model || a.NoBatch != b.NoBatch || a.TimeoutMs != b.TimeoutMs {
		return fmt.Errorf("scalars: %+v vs %+v", a, b)
	}
	if (a.Seed == nil) != (b.Seed == nil) || (a.Seed != nil && *a.Seed != *b.Seed) {
		return fmt.Errorf("seed: %v vs %v", a.Seed, b.Seed)
	}
	if (a.Inputs == nil) != (b.Inputs == nil) || len(a.Inputs) != len(b.Inputs) {
		return fmt.Errorf("inputs: %d (nil %v) vs %d (nil %v)", len(a.Inputs), a.Inputs == nil, len(b.Inputs), b.Inputs == nil)
	}
	for name, ta := range a.Inputs {
		tb, ok := b.Inputs[name]
		if !ok {
			return fmt.Errorf("input %q only on one side", name)
		}
		if !reflect.DeepEqual(ta.Shape, tb.Shape) {
			return fmt.Errorf("input %q shape: %#v vs %#v", name, ta.Shape, tb.Shape)
		}
		if (ta.Data == nil) != (tb.Data == nil) || len(ta.Data) != len(tb.Data) {
			return fmt.Errorf("input %q data: %d (nil %v) vs %d (nil %v)", name, len(ta.Data), ta.Data == nil, len(tb.Data), tb.Data == nil)
		}
		for i := range ta.Data {
			if math.Float32bits(ta.Data[i]) != math.Float32bits(tb.Data[i]) {
				return fmt.Errorf("input %q data[%d]: %g vs %g", name, i, ta.Data[i], tb.Data[i])
			}
		}
	}
	return nil
}

// stdlibDecodeBody is decodeInferBody with the scanner taken out: what the
// handlers did before it existed, plus the trailing-bytes check.
func stdlibDecodeBody(data []byte, req *InferRequest) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(plain(req)); err != nil {
		return err
	}
	if i := firstNonSpace(data[dec.InputOffset():]); i >= 0 {
		return fmt.Errorf("trailing bytes")
	}
	return nil
}

// FuzzDecodeInferRequest: for any bytes a client can send, the request reader
// and encoding/json agree on whether they are a request and on every field of
// it — through the handlers' entry point and through json.Unmarshal — and
// whatever the scanner accepts on its own encoding/json accepts identically.
// The seed corpus is testdata/fuzz/FuzzDecodeInferRequest.
func FuzzDecodeInferRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got, viaUnmarshal, scanned InferRequest
		wantErr := stdlibDecodeBody(data, &want)
		gotErr := decodeInferBody(data, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("accept/reject: encoding/json says %v, reader says %v", wantErr, gotErr)
		}
		if wantErr == nil {
			if err := sameRequest(got, want); err != nil {
				t.Fatalf("reader vs encoding/json: %v", err)
			}
			if err := json.Unmarshal(data, &viaUnmarshal); err != nil {
				t.Fatalf("json.Unmarshal refused what the reader took: %v", err)
			}
			if err := sameRequest(viaUnmarshal, want); err != nil {
				t.Fatalf("json.Unmarshal vs encoding/json: %v", err)
			}
		}
		if n, ok := scanInferRequest(data, &scanned); ok {
			var ref InferRequest
			dec := json.NewDecoder(bytes.NewReader(data))
			if err := dec.Decode(plain(&ref)); err != nil {
				t.Fatalf("scanner accepted what encoding/json refuses: %v", err)
			}
			if int64(n) != dec.InputOffset() {
				t.Fatalf("scanner's value ends at %d, encoding/json's at %d", n, dec.InputOffset())
			}
			if err := sameRequest(scanned, ref); err != nil {
				t.Fatalf("scanner vs encoding/json: %v", err)
			}
		}
	})
}

// TestScannerHandlesOrdinaryBodies: the fallback keeps odd input correct, but
// a body as a client's encoder writes it must not need it.
func TestScannerHandlesOrdinaryBodies(t *testing.T) {
	seed := uint64(7)
	req := InferRequest{
		Model:     "squeezenet",
		Inputs:    map[string]TensorJSON{"image": {Shape: []int{1, 3, 2, 2}, Data: []float32{0, -1.5, 1e-7, 3e22, 5, 6, 7, 8, 9, 10, 11, 12}}, "mask": {Shape: []int{}, Data: []float32{1}}},
		Seed:      &seed,
		NoBatch:   true,
		TimeoutMs: 250,
	}
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(req, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{compact, indented} {
		var got InferRequest
		n, ok := scanInferRequest(body, &got)
		if !ok || n != len(body) {
			t.Fatalf("scanner declined (ok=%v, offset %d of %d): %s", ok, n, len(body), body)
		}
		if err := sameRequest(got, req); err != nil {
			t.Error(err)
		}
	}
}

// TestReadInferRequestOwnsItsMemory: the body buffer goes back to the pool
// before the request runs, so nothing decoded may point into it.
func TestReadInferRequestOwnsItsMemory(t *testing.T) {
	read := func(body string) (InferRequest, ramiel.Env) {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
		req, feeds, rerr := ReadInferRequest(httptest.NewRecorder(), r, 1<<20)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return req, feeds
	}
	req, feeds := read(`{"model":"first","inputs":{"aaaa":{"shape":[4],"data":[1,2,3,4]}}}`)
	for i := 0; i < 8; i++ { // same length, so a reused buffer is overwritten in place
		read(`{"model":"other","inputs":{"bbbb":{"shape":[4],"data":[5,6,7,8]}}}`)
	}
	if req.Model != "first" {
		t.Errorf("model = %q after the buffer was reused", req.Model)
	}
	x, ok := feeds["aaaa"]
	if !ok || !reflect.DeepEqual(x.Data(), []float32{1, 2, 3, 4}) {
		t.Errorf("feeds = %v after the buffer was reused", feeds)
	}
}

// TestReadInferRequestConcurrent: callers that share the buffer pool each get
// their own body back (run under -race in CI).
func TestReadInferRequestConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			model := fmt.Sprintf("model-%d", g)
			want := []float32{float32(g), float32(g) + 0.5, -float32(g), 1e-3}
			body, err := json.Marshal(InferRequest{Model: model, Inputs: map[string]TensorJSON{"x": {Shape: []int{4}, Data: want}}})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
				req, feeds, rerr := ReadInferRequest(httptest.NewRecorder(), r, 1<<20)
				if rerr != nil {
					t.Error(rerr)
					return
				}
				if req.Model != model || !reflect.DeepEqual(feeds["x"].Data(), want) {
					t.Errorf("caller %d read %q %v", g, req.Model, feeds["x"].Data())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// realBody is a request as rambench's serve_wire workload sends it:
// squeezenet's 1×3×224×224 input, 1.5 MB of JSON.
func realBody(tb testing.TB) []byte {
	tb.Helper()
	g, err := models.Build("squeezenet", models.Config{ImageSize: 224})
	if err != nil {
		tb.Fatal(err)
	}
	req := InferRequest{Model: "squeezenet", Inputs: map[string]TensorJSON{}}
	for name, t := range models.RandomInputs(g, 1) {
		req.Inputs[name] = fromTensor(t)
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

var decodeSink InferRequest

// BenchmarkInferDecode is the wire layer at a real input size: "stdlib" is the
// decode both handlers ran before, "fast" the one they run now.
func BenchmarkInferDecode(b *testing.B) {
	body := realBody(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte, *InferRequest) error
	}{{"stdlib", stdlibDecodeBody}, {"fast", decodeInferBody}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decodeSink = InferRequest{}
				if err := bc.decode(body, &decodeSink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestInferDecodeAllocs pins what a decode allocates: the data slice, the
// shape, the inputs map and the two strings — not a token, buffer or
// reflection value per element.
func TestInferDecodeAllocs(t *testing.T) {
	body := realBody(t)
	allocs := testing.AllocsPerRun(5, func() {
		decodeSink = InferRequest{}
		if err := decodeInferBody(body, &decodeSink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("decoding a %d-byte request allocates %.0f times, want at most 8", len(body), allocs)
	}
	var want InferRequest
	if err := stdlibDecodeBody(body, &want); err != nil {
		t.Fatal(err)
	}
	if err := sameRequest(decodeSink, want); err != nil {
		t.Error(err)
	}
}

// TestDecodeAllocationBoundedByBody: a shape is a claim, not bytes sent. Many
// tensors that each declare a huge shape and carry one element must not make
// the decoder allocate more than a small multiple of the body — the pre-size
// of a data slice is bounded by that array's own bytes, not by the shape or by
// the rest of the body.
func TestDecodeAllocationBoundedByBody(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"model":"m","inputs":{`)
	for i := 0; b.Len() < 1<<20; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%d":{"shape":[99999999],"data":[1]}`, i)
	}
	b.WriteString(`}}`)
	body := b.Bytes()

	allocated := func(decode func([]byte, *InferRequest) error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req InferRequest
		if err := decode(body, &req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(req)
		return after.TotalAlloc - before.TotalAlloc
	}
	stdlib, fast := allocated(stdlibDecodeBody), allocated(decodeInferBody)
	t.Logf("%d-byte body: encoding/json allocates %d bytes, the reader %d", len(body), stdlib, fast)
	if fast > stdlib {
		t.Errorf("decoding a %d-byte body allocates %d bytes, encoding/json %d", len(body), fast, stdlib)
	}
}
