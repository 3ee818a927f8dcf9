package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// wireReply is what a client of POST /v1/infer can tell apart.
type wireReply struct {
	status int
	cause  string
	err    string
}

// TestInferWireGolden pins status, cause and error text of POST /v1/infer on
// both tiers — serve.Server.Handler and fleet.Front.Handler over an in-process
// replica of the same server — so a change to how bodies are read cannot move
// what a client sees. A row's fleet reply is the serve reply unless the tiers
// differ by design: the daemon checks feeds against the model before it
// dispatches, the front lets the replica refuse them.
func TestInferWireGolden(t *testing.T) {
	const maxBody = 2048
	srv := newLocalServer(t, serve.Config{Workers: 1, MaxBatch: 1, MaxBodyBytes: maxBody})
	front := New(Config{MaxBodyBytes: maxBody},
		NewLocal("r0", newLocalServer(t, serve.Config{Workers: 1, MaxBatch: 1})))
	handlers := []struct {
		name string
		h    http.Handler
	}{{"serve", srv.Handler()}, {"fleet", front.Handler()}}

	const tooLarge = "serve: request body too large (limit 2048 bytes)"
	rows := []struct {
		name  string
		body  string
		want  wireReply
		fleet *wireReply
	}{
		{name: "ok", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`,
			want: wireReply{status: 200}},
		{name: "ok, spaced and reordered", body: " {\n\"inputs\" : {\"x\": {\"data\": [ -1 , 0.5e0 ,1E+0, 2 ] ,\"shape\":[ 4 ]}},\t\"model\":\"tiny\"}\r\n",
			want: wireReply{status: 200}},
		{name: "ok through the stdlib (escaped key, unknown field)", body: `{"mod\u0065l":"tiny","extra":[{}],"inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`,
			want: wireReply{status: 200}},
		{name: "seed", body: `{"model":"tiny","seed":7}`,
			want: wireReply{status: 200}},
		{name: "malformed", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,,2]}}}`,
			want: wireReply{400, "", "decoding request: invalid character ',' looking for beginning of value"}},
		{name: "not JSON", body: `hello`,
			want: wireReply{400, "", "decoding request: invalid character 'h' looking for beginning of value"}},
		{name: "empty body", body: ``,
			want: wireReply{400, "", "decoding request: EOF"}},
		{name: "truncated", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0`,
			want: wireReply{400, "", "decoding request: unexpected EOF"}},
		{name: "body over MaxBodyBytes", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[` + strings.Repeat("1,", 4000) + `1]}}}`,
			want: wireReply{413, "body_too_large", tooLarge}},
		{name: "shape/data length mismatch", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[1,2,3]}}}`,
			want: wireReply{400, "", `input "x": shape [4] wants 4 values, got 3`}},
		{name: "invalid shape", body: `{"model":"tiny","inputs":{"x":{"shape":[-4],"data":[1,2,3,4]}}}`,
			want: wireReply{400, "", `input "x": invalid shape [-4]`}},
		{name: "missing model", body: `{"inputs":{"x":{"shape":[4],"data":[1,2,3,4]}}}`,
			want: wireReply{400, "", `missing "model"`}},
		{name: "neither inputs nor seed", body: `{"model":"tiny"}`,
			want: wireReply{400, "", `provide "inputs" or "seed"`}},
		{name: "unknown model", body: `{"model":"nope","inputs":{"x":{"shape":[1],"data":[1]}}}`,
			want:  wireReply{404, "", `serve: model "nope": model not registered`},
			fleet: &wireReply{404, "execution", `serve: model "nope": model not registered`}},
		{name: "unknown model, seed mode", body: `{"model":"nope","seed":1}`,
			want:  wireReply{404, "", `serve: model "nope": model not registered`},
			fleet: &wireReply{400, "", `seed mode needs an in-process replica holding "nope" (remote fleets take "inputs")`}},
		{name: "number out of float32 range", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[1,2,3,1e39]}}}`,
			want: wireReply{400, "", "decoding request: json: cannot unmarshal number 1e39 into Go struct field TensorJSON.inputs.data of type float32"}},
		{name: "wrong type for model", body: `{"model":7,"seed":1}`,
			want: wireReply{400, "", "decoding request: json: cannot unmarshal number into Go struct field InferRequest.model of type string"}},
		{name: "data not an array", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":"abc"}}}`,
			want: wireReply{400, "", "decoding request: json: cannot unmarshal string into Go struct field TensorJSON.inputs.data of type []float32"}},
		{name: "fractional dimension", body: `{"model":"tiny","inputs":{"x":{"shape":[4.5],"data":[1,2,3,4]}}}`,
			want: wireReply{400, "", "decoding request: json: cannot unmarshal number 4.5 into Go struct field TensorJSON.inputs.shape of type int"}},
		{name: "feeds do not match the model", body: `{"model":"tiny","inputs":{"x":{"shape":[2,2],"data":[1,2,3,4]}}}`,
			want:  wireReply{400, "validation", `invalid feeds: input "x" has shape [2 2], model declares [4]`},
			fleet: &wireReply{400, "validation", `ramiel: invalid feeds for "tiny": shape mismatches: x: feed has shape [2 2], program declares [4]`}},
		{name: "trailing bytes after the value", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}garbage`,
			want: wireReply{400, "", "decoding request: invalid character 'g' after top-level value"}},
		{name: "second value after the first", body: `{"model":"tiny","seed":1} {"model":"tiny","seed":2}`,
			want: wireReply{400, "", "decoding request: invalid character '{' after top-level value"}},
	}
	for _, h := range handlers {
		for _, row := range rows {
			t.Run(h.name+"/"+row.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(row.body)))
				var er serve.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
					t.Fatalf("reply is not JSON: %v: %s", err, rec.Body)
				}
				want := row.want
				if h.name == "fleet" && row.fleet != nil {
					want = *row.fleet
				}
				if got := (wireReply{rec.Code, er.Cause, er.Error}); got != want {
					t.Errorf("got  %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
