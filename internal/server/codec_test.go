package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
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
	// Word-kernel edges: a value ending fewer than eight bytes before
	// the end of the body, zeros across an 8-digit chunk boundary, the
	// int64 limits in a values list and at the end of the body, and
	// whitespace between values after which the word loop resumes.
	`{"results":[{"values":[1234567]}]}`,
	`{"results":[{"values":[7],"count":1234567}]}`,
	`{"results":[{"values":[-0,0,-1]}]}`,
	`{"results":[{"values":[100000000,1000000000000001,10000000000000000,-100000000]}]}`,
	`{"results":[{"values":[9223372036854775807,-9223372036854775808,1]}]}`,
	`{"results":[{"values":[-9223372036854775808]}]}`,
	`{"results":[{"values":[9223372036854775807]}]}`,
	"{\"results\":[{\"values\":[1, 2,\n3 ,4\t,\r12345678 , 123456789,1234567890123]}]}",
	// Short-value fast path edges: whitespace right after a comma it
	// took, a 7-digit value before ']', an 8-digit value whose comma is
	// in the next word, negatives and zeros among short values, a
	// value starting exactly 8 and 7 bytes before the end, and a last
	// value ending 4 to 7 bytes before the end.
	"{\"results\":[{\"values\":[1234567, 1234567,\n7,\t0,\r12 ,3]}]}",
	`{"results":[{"values":[1,1234567]}]}`,
	`{"results":[{"values":[1234567],"count":1}]}`,
	`{"results":[{"values":[1,12345678,1234567,87654321,10000000,9999999,2]}]}`,
	`{"results":[{"values":[-123456,1234567,-1,0,0,0,1,-1234567,7]}]}`,
	`{"results":[{"values":[12,3]}]}`,
	`{"results":[{"values":[1,2]}]}`,
	`{"results":[{"values":[1,2345]}]}`,
	"{\"results\":[{\"values\":[1,2345]}]} ",
	"{\"results\":[{\"values\":[1,2345]}]}\n\n",
	"{\"results\":[{\"values\":[1,2345]}]} \t\n",
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
	`{"results":[{"values":[01,2]}]}`,
	`{"results":[{"values":[1,-01,2]}]}`,
	`{"results":[{"values":[01]}]}`,
	`{"results":[{"values":[-]}]}`,
	`{"results":[{"values":[1,-,2]}]}`,
	`{"results":[{"values":[- 1]}]}`,
	`{"results":[{"values":[0000000012345678]}]}`,
	`{"results":[{"values":[000000000,1]}]}`,
	`{"results":[{"values":[-0000000012345678,1]}]}`,
	`{"results":[{"values":[9223372036854775808,1]}]}`,
	`{"results":[{"values":[1,-9223372036854775809,1]}]}`,
	`{"results":[{"values":[9223372036854775808]}]}`,
	`{"results":[{"values":[-9223372036854775809]}]}`,
	`{"results":[{"values":[10000000000000000000,1]}]}`,
	`{"results":[{"values":[-10000000000000000000]}]}`,
	`{"results":[{"values":[1234567890123456789012345678901234567890]}]}`,
	`{"results":[{"values":[12345678.5,1]}]}`,
	`{"results":[{"values":[1234567e1,1]}]}`,
	`{"results":[{"values":[12345678` + "\x00" + `,1]}]}`,
	`{"results":[{"values":[1 , 2 3]}]}`,
	`{"results":[{"values":[1,2`,
	`{"results":[{"values":[12345678`,
	`{"results":[{"values":[123,`,
	// Short-value fast path edges: a leading zero after a short value,
	// digits ending in a byte other than ',' with the fast path active
	// and a whole word left, and a short value ending 0 to 3 bytes
	// before the end of a truncated body.
	`{"results":[{"values":[0123456,1]}]}`,
	`{"results":[{"values":[1,0123456,1]}]}`,
	`{"results":[{"values":[1,00,1,1,1]}]}`,
	`{"results":[{"values":[1,123.5,1,1]}]}`,
	`{"results":[{"values":[1,123e4,1,1]}]}`,
	`{"results":[{"values":[1,123E4,1,1]}]}`,
	`{"results":[{"values":[1,123:4,1,1]}]}`,
	"{\"results\":[{\"values\":[1,123\x004,1,1]}]}",
	"{\"results\":[{\"values\":[1,123\xff4,1,1]}]}",
	`{"results":[{"values":[1,1234567,,1]}]}`,
	`{"results":[{"values":[1,,1234567,1]}]}`,
	`{"results":[{"values":[,12345678]}]}`,
	`{"results":[{"values":[1,2345`,
	`{"results":[{"values":[1,2345]`,
	`{"results":[{"values":[1,2345]}`,
	`{"results":[{"values":[1,2345]}]`,
	`{"results":[{"values":[1234567,`,
	`{"results":[{"values":[1234567,1`,
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
	edges := kernelEdgeValues()
	f.Add(AppendQueryResponse(nil, QueryResponse{Results: []QueryResult{{Count: len(edges), Values: edges}}}))
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

// FuzzQueryResponseEncode holds the encoder to encoding/json on values
// made from the fuzz bytes, eight to a value, written after a prefix
// into a reused buffer whose bytes past the prefix are a stale answer.
func FuzzQueryResponseEncode(f *testing.F) {
	for _, vals := range [][]int64{
		kernelEdgeValues(),
		codecBenchResponse(64, 7).Results[0].Values,
		codecBenchResponse(64, 0).Results[0].Values,
		{0, 1, 9999999, 10000000, -1},
	} {
		var data []byte
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint64(data, uint64(v))
		}
		f.Add(data)
	}
	f.Add([]byte{})
	const prefix = "prefix"
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]int64, len(data)/8)
		stale := make([]int64, len(vals))
		var sum int64
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			stale[i] = ^vals[i]
			sum += vals[i]
		}
		resp := QueryResponse{Results: []QueryResult{{Count: len(vals), Sum: sum, Values: vals}, {Count: 1}}}
		buf := AppendQueryResponse([]byte(prefix), QueryResponse{Results: []QueryResult{{Count: -1, Values: stale}}})
		got := AppendQueryResponse(buf[:len(prefix)], resp)
		if want := jsonEncoded(t, resp); string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendQueryResponse(%q, %+v)\n got %s\nwant %s%s", prefix, resp, got, prefix, want)
		}
	})
}

// kernelEdgeValues are the values the digit kernels split or bound
// differently: every digit count from 1 to 19, each power of ten and its
// neighbours (so the 10^8 and 10^16 chunk edges), both int64 limits, and
// the negatives of all of them.
func kernelEdgeValues() []int64 {
	vals := []int64{0, math.MaxInt64, math.MaxInt64 - 1}
	for p := int64(1); ; p *= 10 {
		vals = append(vals, p-1, p, p+1, p+p/2+3)
		if p > math.MaxInt64/10 {
			break
		}
	}
	for _, v := range vals[1:] {
		vals = append(vals, -v)
	}
	return append(vals, math.MinInt64)
}

// TestCodecDigitKernelsMatchStrconv holds both kernels to strconv on every
// edge value: the encoder writes strconv's digits, alone and in a list,
// and the decoder reads them back with the literal's end, whether the
// value sits mid-body (word loop), ends the body (byte tail), or is
// followed by a separator or a byte that ends a literal.
func TestCodecDigitKernelsMatchStrconv(t *testing.T) {
	vals := kernelEdgeValues()
	digits := map[int]bool{}
	var list []byte
	for i, v := range vals {
		want := strconv.FormatInt(v, 10)
		digits[len(strings.TrimPrefix(want, "-"))] = true
		if got := string(appendInt([]byte("x"), v)); got != "x"+want {
			t.Errorf("appendInt(%d) = %q, want %q", v, got, "x"+want)
		}
		if got := decimalWidth(v); got != len(want) {
			t.Errorf("decimalWidth(%d) = %d, want %d", v, got, len(want))
		}
		if i > 0 {
			list = append(list, ',')
		}
		list = strconv.AppendInt(list, v, 10)
		for _, tail := range []string{"", ",", "]", "}", " ", ".5", "e3", ",123456789", "]}]}\n", "        "} {
			body := want + tail
			got, end, fault := parseInt([]byte(body), 0)
			if fault != "" || got != v || end != len(want) {
				t.Errorf("parseInt(%q) = %d, end %d, fault %q; want %d, end %d", body, got, end, fault, v, len(want))
			}
		}
	}
	if got := appendInts(nil, vals); !bytes.Equal(got, list) {
		t.Errorf("appendInts(edges)\n got %s\nwant %s", got, list)
	}
	for n := 1; n <= 19; n++ {
		if !digits[n] {
			t.Errorf("no edge value has %d digits", n)
		}
	}
	checkRoundTrip(t, QueryResponse{Results: []QueryResult{{Count: len(vals), Sum: vals[1], Values: vals}}})
}

// TestCodecParseIntRejects holds the integer reader to JSON's number grammar
// and the int64 range, at every distance from the end of the body.
func TestCodecParseIntRejects(t *testing.T) {
	for _, lit := range []string{
		"", "-", "+1", "--1", "-+1", "01", "00", "-01", "-00", "007",
		"0000000012345678", "-0000000000000000001",
		"9223372036854775808", "-9223372036854775809",
		"9999999999999999999", "10000000000000000000", "-10000000000000000000",
		"123456789012345678901234567890",
	} {
		for _, tail := range []string{"", ",", "]", "        "} {
			body := lit + tail
			if v, end, fault := parseInt([]byte(body), 0); fault == "" {
				t.Errorf("parseInt(%q) = %d, end %d; want a fault", body, v, end)
			}
		}
	}
}

// TestCodecLeadingDigits checks the SWAR digit mask against every byte value
// at every position of the word, with digits below it and bytes that
// would carry or borrow above it.
func TestCodecLeadingDigits(t *testing.T) {
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			for _, fill := range []byte{0x00, '5', 0xFF} {
				var word [8]byte
				for i := range word {
					word[i] = fill
				}
				for i := 0; i < pos; i++ {
					word[i] = '0' + byte(i+c)%10
				}
				word[pos] = byte(c)
				want := pos
				if c >= '0' && c <= '9' {
					want = pos + 1
					for want < 8 && word[want] >= '0' && word[want] <= '9' {
						want++
					}
				}
				if got := leadingDigits(binary.LittleEndian.Uint64(word[:])); got != want {
					t.Fatalf("leadingDigits(%q) = %d, want %d", word, got, want)
				}
			}
		}
	}
}

// TestCodecShortValues checks the decoder's fast path on its own: after
// a short value, it sees digits of every width from 0 to 8, with and
// without a leading zero, then every byte value, with 0 to 8 bytes of
// the body left after that byte. It must take a value exactly when a
// whole word is left, its digits and a ',' fit in that word and the
// literal is valid, and otherwise stop at that value's start.
func TestCodecShortValues(t *testing.T) {
	for width := 0; width <= 8; width++ {
		for _, first := range []byte{'0', '7'} {
			lit := (string(first) + "12345678")[:width]
			for c := 0; c < 256; c++ {
				for pad := 0; pad <= 8; pad++ {
					body := []byte("5," + lit + string(rune(0)) + strings.Repeat("9", pad))
					body[2+width] = byte(c)
					out, pos := shortValues(body, 0, nil)
					var want []int64
					wantPos := 0
					if len(body) >= 8 {
						want, wantPos = []int64{5}, 2
					}
					if c == ',' && 1 <= width && width <= 7 && (first != '0' || width == 1) && len(body)-2 >= 8 {
						v, _ := strconv.ParseInt(lit, 10, 64)
						want, wantPos = append(want, v), 2+width+1
					}
					if !slices.Equal(out, want) || pos != wantPos {
						t.Fatalf("shortValues(%q) = %v, %d; want %v, %d", body, out, pos, want, wantPos)
					}
				}
			}
		}
	}
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

// codecBenchResponse is a one-result answer of n values, each with the
// given number of decimal digits; 19-digit values alternate in sign. For
// digits 0 the widths are drawn from 1 to 19 and about half the values
// are negative.
func codecBenchResponse(n, digits int) QueryResponse {
	rng := rand.New(rand.NewSource(int64(n*100 + digits)))
	vals := make([]int64, n)
	var sum int64
	for i := range vals {
		width := digits
		if digits == 0 {
			width = 1 + rng.Intn(19)
		}
		lo := int64(pow10[width-1])
		v := lo + rng.Int63n(9*lo)
		if digits == 19 && i%2 == 1 || digits == 0 && rng.Intn(2) == 1 {
			v = -v
		}
		vals[i] = v
		sum += v
	}
	return QueryResponse{Results: []QueryResult{{Count: n, Sum: sum, Values: vals}}}
}

// codecBenchCase is an answer shape the codec benchmarks time: values
// values of digits decimal digits each, or of mixed widths for digits 0.
type codecBenchCase struct{ values, digits int }

func (c codecBenchCase) String() string {
	if c.digits == 0 {
		return fmt.Sprintf("values=%d/digits=mixed", c.values)
	}
	return fmt.Sprintf("values=%d/digits=%d", c.values, c.digits)
}

// codecBenchCases are a narrow and a wide answer with 7-digit values (a
// column of a few million rows, the decoder's and encoder's short-value
// fast path) and with full-width int64 values, and a wide answer of
// mixed widths and signs, where the fast path is taken for a few values
// only and the cost of falling back shows.
var codecBenchCases = []codecBenchCase{
	{10, 7}, {10, 19}, {10_000, 7}, {10_000, 19}, {10_000, 0},
}

// TestAppendQueryResponseCapacity pins that the encoder sizes its buffer
// on the answer rather than on the widest possible value: a wide answer
// encoded from nil leaves at most a quarter of spare capacity, which is
// what the pooled response buffer then keeps.
func TestAppendQueryResponseCapacity(t *testing.T) {
	for _, c := range codecBenchCases {
		out := AppendQueryResponse(nil, codecBenchResponse(c.values, c.digits))
		if c.values >= 1000 && cap(out) > len(out)*5/4 {
			t.Errorf("%d %d-digit values: %d bytes in a %d-byte buffer", c.values, c.digits, len(out), cap(out))
		}
	}
}

func BenchmarkAppendQueryResponse(b *testing.B) {
	for _, c := range codecBenchCases {
		resp := codecBenchResponse(c.values, c.digits)
		b.Run(c.String(), func(b *testing.B) {
			buf := AppendQueryResponse(nil, resp)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendQueryResponse(buf[:0], resp)
			}
		})
	}
}

func BenchmarkDecodeQueryResponse(b *testing.B) {
	for _, c := range codecBenchCases {
		body := AppendQueryResponse(nil, codecBenchResponse(c.values, c.digits))
		b.Run(c.String(), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeQueryResponse(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestClientQueryAllocsOverHTTP pins the allocations of one converged
// query end to end over loopback HTTP: Client.QueryRange against
// Server.Handler() behind httptest.NewServer, client and server counted
// together. The bounds are what the stack spends today (net/http, the
// request JSON, the answer's value slice); a 10k-row answer may cost only
// the few more that its larger buffers take, never one per value.
func TestClientQueryAllocsOverHTTP(t *testing.T) {
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
	ts := httptest.NewServer(New(db, Config{Info: Info{Rows: rows, Algorithm: crackdb.Crack, Permutation: true}}).Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	for _, tc := range []struct {
		lo, hi int64
		most   float64
	}{
		{20_000, 20_010, 101},
		{30_000, 40_000, 104},
	} {
		query := func() {
			res, err := c.QueryRange(ctx, tc.lo, tc.hi)
			if err != nil || res.Count != int(tc.hi-tc.lo) || len(res.Values) != res.Count {
				t.Fatalf("[%d, %d): %d values, count %d, err %v", tc.lo, tc.hi, len(res.Values), res.Count, err)
			}
		}
		query() // converge both bounds
		query() // warm the pooled buffers and the connection
		if got := testing.AllocsPerRun(50, query); got > tc.most {
			t.Errorf("[%d, %d) over HTTP: %.0f allocs per query, want at most %.0f", tc.lo, tc.hi, got, tc.most)
		}
	}
}
