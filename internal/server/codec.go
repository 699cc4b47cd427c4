package server

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// The /v1/query answer is the one payload whose size grows with the data
// (a wide range answer carries every value), so it has its own codec in
// place of encoding/json's reflection. The bytes are exactly what
// encoding/json produces for QueryResponse; the tests hold both halves
// to encoding/json as the reference.

// AppendQueryResponse appends the JSON encoding of resp to dst, byte for
// byte what json.NewEncoder(w).Encode(resp) writes: "results" is null for
// a nil slice, "values" is omitted when empty, and a newline ends it.
func AppendQueryResponse(dst []byte, resp QueryResponse) []byte {
	dst = append(dst, `{"results":`...)
	if resp.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, r := range resp.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"count":`...)
			dst = strconv.AppendInt(dst, int64(r.Count), 10)
			dst = append(dst, `,"sum":`...)
			dst = strconv.AppendInt(dst, r.Sum, 10)
			if len(r.Values) > 0 {
				dst = append(dst, `,"values":[`...)
				for j, v := range r.Values {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = strconv.AppendInt(dst, v, 10)
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// decodeQueryResponse parses a /v1/query answer for Client.Query. It is
// strict: it accepts JSON whitespace and any key order, and rejects
// unknown or repeated keys, numbers that are not plain int64 literals
// (leading zeros, "+", fractions, exponents, out of range), truncation
// and trailing data. Whatever it accepts, encoding/json decodes to the
// same value. Only the result and value slices are allocated; a value
// slice is sized from its result's "count" when that key comes first.
func decodeQueryResponse(data []byte) (QueryResponse, error) {
	d := queryDecoder{data: data}
	resp, err := d.response()
	if err != nil {
		return QueryResponse{}, err
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return QueryResponse{}, d.errorf("trailing data")
	}
	return resp, nil
}

// bodyPool recycles the buffers a Client reads query answers into, so a
// steady stream of wide answers does not leave one body-sized garbage
// buffer per request on the heap.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readQueryResponse reads a whole /v1/query answer from r into a pooled
// buffer and decodes it.
func readQueryResponse(r io.Reader) (QueryResponse, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return QueryResponse{}, err
	}
	return decodeQueryResponse(buf.Bytes())
}

type queryDecoder struct {
	data []byte
	pos  int
}

func (d *queryDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("decoding query response: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *queryDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, reporting whether it was
// there.
func (d *queryDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *queryDecoder) expect(c byte) error {
	if !d.consume(c) {
		return d.errorf("expected %q", c)
	}
	return nil
}

// consumeNull skips whitespace and then a null literal, reporting
// whether it was there.
func (d *queryDecoder) consumeNull() bool {
	d.skipSpace()
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// The keys of the answer, as object() reports them.
const (
	keyResults = iota
	keyCount
	keySum
	keyValues
)

// key reads an object key and its colon. No key of the answer needs an
// escape, so a backslash makes the key unknown.
func (d *queryDecoder) key() (int, error) {
	if err := d.expect('"'); err != nil {
		return 0, err
	}
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] != '"' {
		if c := d.data[d.pos]; c == '\\' || c < 0x20 {
			return 0, d.errorf("unknown key")
		}
		d.pos++
	}
	if d.pos == len(d.data) {
		return 0, d.errorf("unterminated key")
	}
	k := d.data[start:d.pos]
	d.pos++
	if err := d.expect(':'); err != nil {
		return 0, err
	}
	switch string(k) {
	case "results":
		return keyResults, nil
	case "count":
		return keyCount, nil
	case "sum":
		return keySum, nil
	case "values":
		return keyValues, nil
	}
	return 0, d.errorf("unknown key %q", k)
}

// object walks one JSON object, calling field once per key with the
// key's constant; a repeated key is an error.
func (d *queryDecoder) object(field func(key int) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.consume('}') {
		return nil
	}
	var seen uint
	for {
		k, err := d.key()
		if err != nil {
			return err
		}
		if seen&(1<<k) != 0 {
			return d.errorf("repeated key")
		}
		seen |= 1 << k
		if err := field(k); err != nil {
			return err
		}
		if d.consume('}') {
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

func (d *queryDecoder) response() (QueryResponse, error) {
	var resp QueryResponse
	err := d.object(func(k int) error {
		if k != keyResults {
			return d.errorf("unknown key")
		}
		var err error
		resp.Results, err = d.results()
		return err
	})
	return resp, err
}

// results reads the results array: null, or objects separated by commas.
func (d *queryDecoder) results() ([]QueryResult, error) {
	if d.consumeNull() {
		return nil, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	out := make([]QueryResult, 0, 1)
	if d.consume(']') {
		return out, nil
	}
	for {
		r, err := d.result()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if d.consume(']') {
			return out, nil
		}
		if err := d.expect(','); err != nil {
			return nil, err
		}
	}
}

func (d *queryDecoder) result() (QueryResult, error) {
	var r QueryResult
	hint := -1
	err := d.object(func(k int) error {
		switch k {
		case keyCount:
			v, err := d.int64()
			if err != nil {
				return err
			}
			if int64(int(v)) != v {
				return d.errorf("count %d overflows int", v)
			}
			r.Count, hint = int(v), int(v)
		case keySum:
			v, err := d.int64()
			r.Sum = v
			return err
		case keyValues:
			vals, err := d.values(hint)
			r.Values = vals
			return err
		default:
			return d.errorf("unknown key")
		}
		return nil
	})
	return r, err
}

// values reads the values array: null, or int64 literals separated by
// commas. hint, when not negative, is the result's count, and the slice
// is allocated at that capacity. A count larger than the remaining input
// could hold (every value takes a digit and a comma) is ignored, so a
// lying count cannot force a large allocation.
func (d *queryDecoder) values(hint int) ([]int64, error) {
	if d.consumeNull() {
		return nil, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	if most := (len(d.data) - d.pos + 1) / 2; hint < 0 || hint > most {
		hint = min(most, 16)
	}
	out := make([]int64, 0, hint)
	if d.consume(']') {
		return out, nil
	}
	for {
		v, err := d.int64()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if d.consume(']') {
			return out, nil
		}
		if err := d.expect(','); err != nil {
			return nil, err
		}
	}
}

// int64 reads one JSON integer literal: an optional minus, then 0 or a
// non-zero digit followed by digits, within int64. A fraction or exponent
// leaves a '.', 'e' or 'E' that the caller's next expectation rejects.
func (d *queryDecoder) int64() (int64, error) {
	d.skipSpace()
	neg := d.pos < len(d.data) && d.data[d.pos] == '-'
	if neg {
		d.pos++
	}
	start := d.pos
	if d.pos == len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
		return 0, d.errorf("expected an integer")
	}
	if d.data[d.pos] == '0' {
		d.pos++
		if d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			return 0, d.errorf("leading zero")
		}
		return 0, nil
	}
	// Accumulate the magnitude as uint64; limit is MaxInt64 or, for a
	// negative literal, its magnitude plus one.
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var u uint64
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		dig := uint64(d.data[d.pos] - '0')
		if u > (limit-dig)/10 {
			return 0, d.errorf("integer %s overflows int64", d.data[start:d.pos+1])
		}
		u = u*10 + dig
		d.pos++
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}
