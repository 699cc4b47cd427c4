package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
)

// The /v1/query answer is the one payload whose size grows with the data
// (a wide range answer carries every value), so it has its own codec in
// place of encoding/json's reflection. The bytes are exactly what
// encoding/json produces for QueryResponse; the tests hold both halves
// to encoding/json as the reference.
//
// Both halves move decimal digits a machine word at a time: the encoder
// builds eight zero-padded digits in one uint64 and stores it with a
// single write, and the decoder loads eight bytes, finds how many of
// them are digits, and folds those into a number in three
// multiply-and-mask steps. Words are little-endian, so byte 0 of a word
// is the first (most significant) digit on the wire.
//
// Most values of a wide answer are short: non-negative with at most seven
// digits (any column of up to 10^7 rows), so a value and the comma after
// it fit in one word. Both halves have a fast path for that shape: the
// encoder writes the value and its comma with one store, and the decoder
// reads them from one load. Every other shape falls back, at the same
// offset, to the general path, which alone reports errors.

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
			dst = appendInt(dst, int64(r.Count))
			dst = append(dst, `,"sum":`...)
			dst = appendInt(dst, r.Sum)
			if len(r.Values) > 0 {
				dst = append(dst, `,"values":[`...)
				dst = appendInts(dst, r.Values)
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// intRoom is the room putInt needs past its write position: a sign and
// 19 digits. The one word store that can reach past the last digit, a
// short head's, ends within a sign and eight digits.
const intRoom = 1 + 19

// appendInt appends v in decimal, as strconv.AppendInt(dst, v, 10) does.
func appendInt(dst []byte, v int64) []byte {
	dst = slices.Grow(dst, intRoom)
	return dst[:putInt(dst[:cap(dst)], len(dst), v)]
}

// appendInts appends vals in decimal, separated by commas: each value
// and a comma after it, the last comma then dropped. When dst runs short
// it grows by exactly what the values left take, so it grows at most
// once per list, and a reused buffer stays about the size of the largest
// answer written into it.
func appendInts(dst []byte, vals []int64) []byte {
	if len(vals) == 0 {
		return dst
	}
	n := len(dst)
	b := dst[:cap(dst)]
	for i, v := range vals {
		if len(b)-n < intRoom+1 {
			need := intRoom
			for _, v := range vals[i:] {
				need += 1 + decimalWidth(v)
			}
			b = slices.Grow(b[:n], need)
			b = b[:cap(b)]
		}
		if uint64(v) < 1e7 {
			// A short value: its digits and the comma go out in one
			// word. k is at most 7; the mask only spares the compiler
			// its code for shifts of 64 and more.
			w, k := headWord(uint32(v))
			binary.LittleEndian.PutUint64(b[n:], w|','<<(8*k&63))
			n += k + 1
		} else {
			n = putInt(b, n, v)
			b[n] = ','
			n++
		}
	}
	return b[:n-1]
}

// decimalWidth is the length of v in decimal, sign included.
func decimalWidth(v int64) int {
	u, sign := uint64(v), 0
	if v < 0 {
		u, sign = -u, 1
	}
	// Len64*1233>>12 is log10 of u's top power of two: the digit count
	// or one short of it.
	d := bits.Len64(u) * 1233 >> 12
	if u >= pow10[d] {
		d++
	}
	return sign + max(d, 1)
}

// putInt writes v in decimal at b[n:], which must have intRoom bytes,
// and returns the end of what it wrote. Bytes past the end may be
// overwritten.
func putInt(b []byte, n int, v int64) int {
	u := uint64(v)
	if v < 0 {
		b[n] = '-'
		n++
		u = -u // also right for MinInt64, whose magnitude is 1<<63
	}
	if u < 1e8 {
		return putHead(b, n, uint32(u))
	}
	// At most 19 digits: a head of 1 to 8, then one or two full chunks.
	low := uint32(u % 1e8)
	u /= 1e8
	if u < 1e8 {
		n = putHead(b, n, uint32(u))
	} else {
		n = putHead(b, n, uint32(u/1e8))
		binary.LittleEndian.PutUint64(b[n:], eightDigits(uint32(u%1e8)))
		n += 8
	}
	binary.LittleEndian.PutUint64(b[n:], eightDigits(low))
	return n + 8
}

// putHead writes v < 10^8 at b[n:] without leading zeros (a lone 0 for
// zero) in one 8-byte store, and returns the end of the digits.
func putHead(b []byte, n int, v uint32) int {
	w, k := headWord(v)
	binary.LittleEndian.PutUint64(b[n:], w)
	return n + k
}

// headWord returns the digits of v < 10^8 without leading zeros (a lone 0
// for zero) in the low bytes of a word, and how many there are.
func headWord(v uint32) (uint64, int) {
	w := eightDigits(v)
	// Each leading zero is a '0' byte at the low end of the word: count
	// them as zero bits, keeping at least the last digit.
	zeros := min(bits.TrailingZeros64(w^asciiZeros)/8, 7)
	return w >> (8 * zeros), 8 - zeros
}

// asciiZeros is eight '0' bytes.
const asciiZeros = 0x3030303030303030

// digitPairs[i] is the two digits of i < 100 as a little-endian uint16.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// eightDigits returns v < 10^8 as eight zero-padded decimal digits,
// the most significant in the low byte.
func eightDigits(v uint32) uint64 {
	hi, lo := v/10000, v%10000
	return uint64(digitPairs[hi/100]) | uint64(digitPairs[hi%100])<<16 |
		uint64(digitPairs[lo/100])<<32 | uint64(digitPairs[lo%100])<<48
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

func (d *queryDecoder) skipSpace() { d.pos = skipSpace(d.data, d.pos) }

// skipSpace returns the offset of the first byte at or after pos that is
// not JSON whitespace.
func skipSpace(data []byte, pos int) int {
	for pos < len(data) {
		switch data[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
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
	// The loop runs on locals and writes d.pos back only to return. A
	// separator is tested for directly; whitespace, which every JSON
	// whitespace byte is at or below, is skipped only where it occurs.
	// shortValues takes the run of short values from pos on, and the
	// general path the first value it leaves. Long or negative values
	// tend to come in runs too, so shortValues is tried again only after
	// a short value: a list of long values costs what it did without it.
	data, pos := d.data, d.pos
	short := true
	for {
		if short {
			out, pos = shortValues(data, pos, out)
		}
		if pos < len(data) && data[pos] <= ' ' {
			pos = skipSpace(data, pos)
		}
		v, end, fault := parseInt(data, pos)
		if fault != "" {
			d.pos = end
			return nil, d.errorf("%s", fault)
		}
		out = append(out, v)
		short = uint64(v) < 1e7
		pos = end
		if pos < len(data) && data[pos] <= ' ' {
			pos = skipSpace(data, pos)
		}
		if pos < len(data) && data[pos] == ',' {
			pos++
			continue
		}
		d.pos = pos
		if pos < len(data) && data[pos] == ']' {
			d.pos++
			return out, nil
		}
		return nil, d.errorf("expected ',' or ']'")
	}
}

// shortValues appends to out the values at data[pos:] for as long as
// each is a non-negative literal of 1 to 7 digits followed by a comma,
// which one 8-byte word holds, and returns the offset of the first value
// it did not take. Any other bytes, including whitespace and the last
// value of a list, are left to the general path.
func shortValues(data []byte, pos int, out []int64) ([]int64, int) {
	for len(data)-pos >= 8 {
		w := binary.LittleEndian.Uint64(data[pos:])
		k := leadingDigits(w)
		// k is 1 to 7, a leading 0 is alone, and byte k is the comma.
		// For k = 8 the masked shift is 0 and reads byte 0, a digit.
		if k == 0 || k > 1 && byte(w) == '0' || w>>(8*k&63)&0xFF != ',' {
			break
		}
		out = append(out, int64(parseDigits(w, k)))
		pos += k + 1
	}
	return out, pos
}

// int64 skips whitespace and reads one integer literal.
func (d *queryDecoder) int64() (int64, error) {
	d.skipSpace()
	v, end, fault := parseInt(d.data, d.pos)
	d.pos = end
	if fault != "" {
		return 0, d.errorf("%s", fault)
	}
	return v, nil
}

// parseInt reads the JSON integer literal at data[pos:]: an optional
// minus, then 0 or a non-zero digit followed by digits, within int64.
// It returns the value and the end of the literal or, on failure, the
// offset of the fault and what is wrong. A fraction or exponent ends the
// literal at its '.', 'e' or 'E', which the caller's next expectation
// rejects. It is the decoder's only integer reader.
func parseInt(data []byte, pos int) (v int64, end int, fault string) {
	neg := pos < len(data) && data[pos] == '-'
	if neg {
		pos++
	}
	start := pos
	// Up to 19 digits fit a uint64, so the magnitude accumulates with no
	// overflow test; the digit count and limit are checked at the end.
	var u uint64
	for {
		if len(data)-pos < 8 {
			// The last few bytes of the body go one at a time.
			for pos < len(data) && data[pos]-'0' < 10 {
				u = u*10 + uint64(data[pos]-'0')
				pos++
			}
			break
		}
		w := binary.LittleEndian.Uint64(data[pos:])
		k := leadingDigits(w)
		u = u*pow10[k] + uint64(parseDigits(w, k))
		pos += k
		if k < 8 {
			break
		}
	}
	switch n := pos - start; {
	case n == 0:
		return 0, pos, "expected an integer"
	case n > 1 && data[start] == '0':
		return 0, start, "leading zero"
	case n >= 19 && (n > 19 || u > 1<<63-1 && !neg || u > 1<<63):
		return 0, start, "integer overflows int64"
	}
	if neg {
		return -int64(u), pos, ""
	}
	return int64(u), pos, ""
}

var pow10 = [20]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// leadingDigits counts the bytes of w, from the low end, before the
// first one that is not an ASCII digit. In w-0x30 a byte below '0'
// borrows and a byte from 0xB0 up stays above 0x7F; in w+0x46 a byte
// from ':' to 0xB9 reaches 0x80. So a byte keeps its top bit clear in
// both only if it is a digit. Borrows and carries run only upward, out
// of a byte that is already flagged, so the lowest flagged byte is
// exact.
func leadingDigits(w uint64) int {
	m := ((w - asciiZeros) | (w + 0x4646464646464646)) & 0x8080808080808080
	return bits.TrailingZeros64(m) / 8
}

// parseDigits returns the number spelled by the k (0 to 8) low bytes of
// w, which are ASCII digits, the first the most significant. Shifting
// them to the top of the word makes the bytes below read as leading
// zeros (for k = 0 the shift clears the word); then adjacent digits,
// pairs and quads fold together in one multiply each.
func parseDigits(w uint64, k int) uint32 {
	w = w << (64 - 8*k) & 0x0F0F0F0F0F0F0F0F
	w = w * (1 + 10<<8) >> 8 & 0x00FF00FF00FF00FF
	w = w * (1 + 100<<16) >> 16 & 0x0000FFFF0000FFFF
	return uint32(w * (1 + 10000<<32) >> 32)
}
