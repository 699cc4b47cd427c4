package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	crackdb "repro"
)

// jsonQueryResponse is the reference decoder the hand decoder is held
// to: encoding/json with unknown fields rejected and nothing but
// whitespace after the value.
func jsonQueryResponse(data []byte) (QueryResponse, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var resp QueryResponse
	if err := dec.Decode(&resp); err != nil {
		return QueryResponse{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return QueryResponse{}, fmt.Errorf("trailing data (%v)", err)
	}
	return resp, nil
}

// jsonEncoded is what WriteJSON sends for resp.
func jsonEncoded(t testing.TB, resp QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRoundTrip holds one response to the codec contract: the encoder
// writes encoding/json's bytes, and the hand decoder reads them back to
// what encoding/json reads.
func checkRoundTrip(t testing.TB, resp QueryResponse) {
	t.Helper()
	got := AppendQueryResponse(nil, resp)
	if want := jsonEncoded(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("AppendQueryResponse(%+v)\n got %s\nwant %s", resp, got, want)
	}
	want, err := jsonQueryResponse(got)
	if err != nil {
		t.Fatalf("encoding/json rejects %s: %v", got, err)
	}
	dec, err := decodeQueryResponse(got)
	if err != nil {
		t.Fatalf("decodeQueryResponse(%s): %v", got, err)
	}
	if !reflect.DeepEqual(dec, want) {
		t.Fatalf("decodeQueryResponse(%s) = %+v, encoding/json = %+v", got, dec, want)
	}
}

func TestAppendQueryResponseMatchesEncodingJSON(t *testing.T) {
	for name, resp := range map[string]QueryResponse{
		"nil results":    {},
		"empty results":  {Results: []QueryResult{}},
		"nil values":     {Results: []QueryResult{{Count: 3, Sum: 6}}},
		"empty values":   {Results: []QueryResult{{Values: []int64{}}}},
		"one value":      {Results: []QueryResult{{Count: 1, Sum: 7, Values: []int64{7}}}},
		"negative":       {Results: []QueryResult{{Count: 2, Sum: -3, Values: []int64{-1, -2}}}},
		"int64 extremes": {Results: []QueryResult{{Count: math.MaxInt, Sum: math.MinInt64, Values: []int64{math.MinInt64, math.MaxInt64, 0, -0}}}},
		"batch": {Results: []QueryResult{
			{Count: 2, Sum: 21, Values: []int64{10, 11}},
			{Count: 5, Sum: 100},
			{},
			{Count: 1, Sum: -9, Values: []int64{-9}},
		}},
	} {
		t.Run(name, func(t *testing.T) { checkRoundTrip(t, resp) })
	}
}

// TestQueryCodecProperty round-trips random responses: batch sizes
// 0..4, nil, empty and filled value lists, values drawn across the whole
// int64 range with the boundaries over-represented.
func TestQueryCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []int64{0, 1, -1, 9, 10, -10, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	draw := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return rng.Int63n(2000) - 1000
		default:
			return int64(rng.Uint64())
		}
	}
	for i := 0; i < 2000; i++ {
		var resp QueryResponse
		if n := rng.Intn(6) - 1; n >= 0 {
			resp.Results = make([]QueryResult, n)
		}
		for j := range resp.Results {
			r := &resp.Results[j]
			r.Count, r.Sum = int(draw()), draw()
			switch rng.Intn(3) {
			case 0: // aggregate: no values
			case 1:
				r.Values = []int64{}
			default:
				r.Values = make([]int64, rng.Intn(40))
				for k := range r.Values {
					r.Values[k] = draw()
				}
			}
		}
		checkRoundTrip(t, resp)
	}
}

// decodeAccepts are bodies the hand decoder must accept, each to what
// encoding/json decodes it to.
var decodeAccepts = []string{
	`{"results":null}`,
	`{"results":[]}`,
	`{}`,
	" \t\r\n{ \"results\" : [ { \"count\" : 2 , \"sum\" : 3 , \"values\" : [ 1 , 2 ] } ] } \n",
	`{"results":[{"values":[5,6],"sum":11,"count":2}]}`,
	`{"results":[{"sum":11,"values":[5,6]}]}`,
	`{"results":[{"count":0,"sum":0,"values":[]}]}`,
	`{"results":[{"count":0,"sum":0,"values":null}]}`,
	`{"results":[{}]}`,
	`{"results":[{"count":-0,"sum":-0,"values":[-0,0]}]}`,
	`{"results":[{"count":1000000,"sum":1,"values":[1]}]}`,
	`{"results":[{"count":1,"sum":-9223372036854775808,"values":[9223372036854775807]}]}`,
	`{"results":[{"count":1},{"count":2,"values":[3,4]}]}`,
}

// decodeRejects are bodies the hand decoder must refuse. Most of them
// encoding/json refuses too; the rest (repeated keys, escaped or
// case-folded key names, null where a number goes, a top-level null)
// encoding/json would accept, and the decoder is stricter on purpose.
var decodeRejects = []string{
	``,
	` `,
	`null`,
	`[]`,
	`{"results":[{"count":01}]}`,
	`{"results":[{"count":00}]}`,
	`{"results":[{"count":-01}]}`,
	`{"results":[{"count":+1}]}`,
	`{"results":[{"count":1e3}]}`,
	`{"results":[{"count":1E3}]}`,
	`{"results":[{"count":1.0}]}`,
	`{"results":[{"sum":1.5}]}`,
	`{"results":[{"count":-}]}`,
	`{"results":[{"count":--1}]}`,
	`{"results":[{"count":"1"}]}`,
	`{"results":[{"count":null}]}`,
	`{"results":[{"count":true}]}`,
	`{"results":[{"sum":9223372036854775808}]}`,
	`{"results":[{"sum":-9223372036854775809}]}`,
	`{"results":[{"values":[99999999999999999999]}]}`,
	`{"results":[{"values":[1,]}]}`,
	`{"results":[{"values":[,1]}]}`,
	`{"results":[{"values":[1 2]}]}`,
	`{"results":[{"values":{}}]}`,
	`{"results":[{"count":1,}]}`,
	`{"results":[{,"count":1}]}`,
	`{"results":[{"count" 1}]}`,
	`{"results":[null]}`,
	`{"results":[{}],}`,
	`{"results":{}}`,
	`{"results":nul}`,
	`{"results":nulll}`,
	`{"results":[{"count":1}]`,
	`{"results":[{"count":1}`,
	`{"results":[{"count":1`,
	`{"results":[{"count":`,
	`{"results":[{"cou`,
	`{"results":[`,
	`{"results"`,
	`{`,
	`{"results":[]}x`,
	`{"results":[]}{}`,
	`{"results":[]} 1`,
	`{"results":[]},`,
	`{"results":[],"results":[]}`,
	`{"results":[{"count":1,"count":2}]}`,
	`{"results":[{"Count":1}]}`,
	`{"Results":[]}`,
	`{"results":[{"count":1,"extra":2}]}`,
	`{"extra":1}`,
	`{"count":1}`,
	`{"results":[{"results":[]}]}`,
	"{\"results\":[{\"count\":1\x00}]}",
	"{\"resu\nlts\":[]}",
}

func TestDecodeQueryResponseAccepts(t *testing.T) {
	for _, body := range decodeAccepts {
		want, err := jsonQueryResponse([]byte(body))
		if err != nil {
			t.Fatalf("reference rejects accept case %q: %v", body, err)
		}
		got, err := decodeQueryResponse([]byte(body))
		if err != nil {
			t.Errorf("decodeQueryResponse(%q): %v", body, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decodeQueryResponse(%q) = %+v, encoding/json = %+v", body, got, want)
		}
	}
}

func TestDecodeQueryResponseRejects(t *testing.T) {
	for _, body := range decodeRejects {
		if got, err := decodeQueryResponse([]byte(body)); err == nil {
			t.Errorf("decodeQueryResponse(%q) = %+v, want an error", body, got)
		}
	}
}

// FuzzQueryResponseDecode is a differential fuzzer against encoding/json:
// no input panics; whatever the hand decoder accepts, encoding/json
// accepts with an equal value; and the encoder's output for it
// round-trips to the same bytes through both decoders.
func FuzzQueryResponseDecode(f *testing.F) {
	for _, body := range decodeAccepts {
		f.Add([]byte(body))
	}
	for _, body := range decodeRejects {
		f.Add([]byte(body))
	}
	f.Add(AppendQueryResponse(nil, QueryResponse{Results: []QueryResult{
		{Count: 3, Sum: 3, Values: []int64{math.MinInt64, math.MaxInt64, 3}},
		{Count: 7, Sum: -1},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeQueryResponse(data)
		if err != nil {
			return
		}
		want, err := jsonQueryResponse(data)
		if err != nil {
			t.Fatalf("hand decoder accepts %q, encoding/json rejects it: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: hand decoder = %+v, encoding/json = %+v", data, got, want)
		}
		enc := AppendQueryResponse(nil, got)
		if want := jsonEncoded(t, got); !bytes.Equal(enc, want) {
			t.Fatalf("AppendQueryResponse(%+v)\n got %s\nwant %s", got, enc, want)
		}
		again, err := decodeQueryResponse(enc)
		if err != nil {
			t.Fatalf("decodeQueryResponse(%s): %v", enc, err)
		}
		if back := AppendQueryResponse(nil, again); !bytes.Equal(back, enc) {
			t.Fatalf("re-encoding %s gave %s", enc, back)
		}
	})
}

// wideResponse is a converged 10k-row answer as the server encodes it.
func wideResponse(n int) []byte {
	vals := make([]int64, n)
	var sum int64
	for i := range vals {
		vals[i] = int64(4_000_000 + i*7)
		sum += vals[i]
	}
	return AppendQueryResponse(nil, QueryResponse{Results: []QueryResult{{Count: n, Sum: sum, Values: vals}}})
}

// TestReadQueryResponseAllocs pins what the Client spends decoding a wide
// answer: the value slice (8 bytes a value, sized from "count") and a
// constant number of small objects — not a body-sized read buffer per
// response, and nothing per value.
func TestReadQueryResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const n = 10_000
	body := wideResponse(n)
	rd := bytes.NewReader(body)
	decode := func() {
		rd.Reset(body)
		resp, err := readQueryResponse(rd)
		if err != nil || len(resp.Results) != 1 || len(resp.Results[0].Values) != n {
			t.Fatalf("decode: %d results, err %v", len(resp.Results), err)
		}
	}
	decode() // fill the body pool
	if objs := testing.AllocsPerRun(50, decode); objs > 3 {
		t.Errorf("decoding a %d-value answer: %.0f allocs, want at most 3", n, objs)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.25 * 8 * n; perOp > limit {
		t.Errorf("decoding a %d-value answer: %.0f B/op, want at most %.0f", n, perOp, limit)
	}
}

// discardWriter is an http.ResponseWriter that keeps only the status and
// a byte count, so allocation counts see the handler alone.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestServedQueryAllocsFlat pins that a converged query answered through
// Server.Handler() costs the same number of allocations for 10 rows as
// for 10k: nothing on the served path allocates per value.
func TestServedQueryAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const rows = 1 << 16
	db, err := crackdb.Open(crackdb.MakeData(rows, 3), crackdb.Crack,
		crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	h := New(db, Config{Info: Info{Rows: rows, Algorithm: crackdb.Crack, Permutation: true}}).Handler()
	ctx := context.Background()
	allocs := func(lo, hi int64) float64 {
		body := fmt.Sprintf(`{"lo":%d,"hi":%d}`, lo, hi)
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)).WithContext(ctx)
			w.status, w.n = 0, 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("[%d, %d): status %d, %d bytes", lo, hi, w.status, w.n)
			}
		}
		serve() // converge both bounds
		serve() // warm the pooled buffers at this answer size
		return testing.AllocsPerRun(50, serve)
	}
	narrow, wide := allocs(20_000, 20_010), allocs(30_000, 40_000)
	if narrow != wide {
		t.Errorf("served query allocs: %.0f for 10 rows, %.0f for 10k rows; want equal", narrow, wide)
	}
}
