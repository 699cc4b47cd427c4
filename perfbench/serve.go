package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	crackdb "repro"
	"repro/internal/cluster"
	"repro/internal/server"
)

// stack is crackserver as it ships, in process: DD1R in Shared mode,
// admission at its default, group commit off and no snapshots (so no
// fsync), behind loopback listeners. A cluster stack puts a coordinator,
// with its shipped client policy and health-probe cadence, in front of
// two backends that each own half of the value domain.
type stack struct {
	dbs    []*crackdb.DB
	bounds [][2]int64 // value range each db owns
	url    string     // where clients send requests
	coord  *cluster.Coordinator
	hs     []*http.Server
	served sync.WaitGroup
}

// startStack builds the data, opens the DBs, starts the listeners (and
// the coordinator) and runs the workload's warm-up in process. With a
// tracer, every handler is wrapped to record spans while it is on.
func startStack(ctx context.Context, w workload, c config, tr *tracer) (_ *stack, err error) {
	st := &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	data := crackdb.MakeData(c.n, c.seed)
	parts := [][]int64{data}
	st.bounds = [][2]int64{{0, c.n}}
	if w.cluster {
		// Each backend keeps the values of its half, as crackserver
		// -shard-of builds its slice.
		parts, st.bounds = nil, nil
		for i := range 2 {
			lo, hi := c.halfOf(i)
			var vals []int64
			for _, v := range data {
				if v >= lo && v < hi {
					vals = append(vals, v)
				}
			}
			parts = append(parts, vals)
			st.bounds = append(st.bounds, [2]int64{lo, hi})
		}
	}
	var urls []string
	for i, vals := range parts {
		db, err := crackdb.Open(vals, crackdb.DD1R, crackdb.WithSeed(c.seed), crackdb.WithConcurrency(crackdb.Shared))
		if err != nil {
			return nil, err
		}
		st.dbs = append(st.dbs, db)
		cfg := server.Config{Info: server.Info{
			Rows: int64(len(vals)), Algorithm: crackdb.DD1R, Seed: c.seed, Permutation: !w.cluster,
		}}
		if w.cluster {
			cfg.ShardLo, cfg.ShardHi = st.bounds[i][0], st.bounds[i][1]
		}
		url, err := st.listen(server.New(db, cfg).Handler(), tr, "server")
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
	}
	st.url = urls[0]
	if w.cluster {
		bootCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		st.coord, err = cluster.New(bootCtx, urls, cluster.Config{})
		if err != nil {
			return nil, err
		}
		if st.url, err = st.listen(st.coord.Handler(), tr, "coordinator"); err != nil {
			return nil, err
		}
	}
	var buf []int64
	err = w.warmUp(ctx, c, func(ctx context.Context, lo, hi int64) (answer, error) {
		buf = buf[:0]
		for i, db := range st.dbs {
			a, b := max(lo, st.bounds[i][0]), min(hi, st.bounds[i][1])
			if a >= b {
				continue
			}
			var err error
			if buf, err = db.QueryAppend(ctx, crackdb.Range(a, b), buf); err != nil {
				return answer{}, err
			}
		}
		return answer{vals: buf}, nil
	})
	return st, err
}

// listen serves h on a fresh loopback port, wrapped with the tracer's
// span recorder when there is one.
func (st *stack) listen(h http.Handler, tr *tracer, name string) (string, error) {
	if tr != nil {
		h = tr.wrap(name, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.hs = append(st.hs, hs)
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the coordinator's health loop, then the listeners, waits
// for every serving goroutine, and closes the DBs.
func (st *stack) close() {
	if st.coord != nil {
		st.coord.Close()
	}
	for _, hs := range st.hs {
		_ = hs.Close() // abandons idle keep-alive connections; nothing is in flight
	}
	st.served.Wait()
	for _, db := range st.dbs {
		_ = db.Close() // closing an in-memory DB only flips its closed flag
	}
}

// stats sums the index counters and read/write path counts of the
// stack's DBs.
func (st *stack) stats() (s crackdb.Stats, reads, writes int64) {
	for _, db := range st.dbs {
		d := db.Stats()
		s.Queries += d.Queries
		s.Touched += d.Touched
		s.Swaps += d.Swaps
		s.Cracks += d.Cracks
		s.Pieces += d.Pieces
		r, w, _ := db.PathStats()
		reads, writes = reads+r, writes+w
	}
	return s, reads, writes
}

// target is one client's handle on a layer: it answers reads and applies
// writes. Each client gets its own, so reusable buffers are not shared.
type target interface {
	read(ctx context.Context, lo, hi int64) (answer, error)
	write(ctx context.Context, o op) (server.UpdateResponse, error)
}

// servedTarget talks to the stack over loopback HTTP. Reads go through
// server.Client; writes post the same JSON themselves, because the
// Client's Delete returns only the pending count and the per-write
// flush and apply times are wanted too.
type servedTarget struct {
	c    *server.Client
	hc   *http.Client
	base string
}

// newHTTPClient returns the client side of a workload: keep-alive
// connections, at most one per client.
func newHTTPClient(clients int, traced bool) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
	}
	if traced {
		rt = spanTransport{base: rt}
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}
}

func (t *servedTarget) read(ctx context.Context, lo, hi int64) (answer, error) {
	r, err := t.c.QueryRange(ctx, lo, hi)
	return answer{vals: r.Values, count: r.Count, sum: r.Sum, summed: true}, err
}

func (t *servedTarget) write(ctx context.Context, o op) (server.UpdateResponse, error) {
	var resp server.UpdateResponse
	path := "/v1/insert"
	if o.kind == opDelete {
		path = "/v1/delete"
	}
	payload, err := json.Marshal(server.UpdateRequest{Values: []int64{o.lo}})
	if err != nil {
		return resp, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(payload))
	if err != nil {
		return resp, err
	}
	req.Header.Set("Content-Type", "application/json")
	r, err := t.hc.Do(req)
	if err != nil {
		return resp, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, r.Body) // drain so the connection is reused
		r.Body.Close()
	}()
	if r.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(r.Body)
		return resp, fmt.Errorf("%s: status %d: %s", path, r.StatusCode, bytes.TrimSpace(body))
	}
	return resp, json.NewDecoder(r.Body).Decode(&resp)
}
