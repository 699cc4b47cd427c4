package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary, recorded by the
// benchmark's own wrappers around the layers' public entry points.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root (client) span
	Name   string `json:"name"`   // client, coordinator or server
	Op     string `json:"op"`     // read, insert or delete
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // response body bytes (handler spans)
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) us() float64        { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory while it is on; wrappers built over it
// pass requests straight through while it is off.
type tracer struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Int64
	// coord is the open coordinator span. Backend requests the
	// coordinator sends carry no span header, so a backend span takes the
	// coordinator span open at the time as its parent, which is exact
	// with one client.
	coord atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanHeader carries the client span's id to the first handler.
const spanHeader = "X-Perfbench-Span"

// dataOps names the data-plane endpoints; probes and stats stay
// untraced.
var dataOps = map[string]string{"/v1/query": "read", "/v1/insert": "insert", "/v1/delete": "delete"}

// wrap records a span named name around every data-plane request h
// serves while the tracer is on.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, ok := dataOps[r.URL.Path]
		if !ok || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.ids.Add(1), Name: name, Op: op}
		if p, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			s.Parent = p
		} else {
			s.Parent = t.coord.Load()
		}
		if name == "coordinator" {
			t.coord.Store(s.ID)
		}
		cw := &countingWriter{ResponseWriter: w}
		s.Start = t.since(time.Now())
		h.ServeHTTP(cw, r)
		s.End = t.since(time.Now())
		s.Bytes = cw.n
		t.record(s)
	})
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// spanKey is the context key of the client span a request belongs to.
type spanKey struct{}

// spanTransport stamps the client span's id on outgoing requests.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// writeSpans writes the recorded spans to path as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
