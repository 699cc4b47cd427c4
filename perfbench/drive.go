package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// sample is one completed request as its client saw it.
type sample struct {
	kind opKind
	us   float64 // latency
	span int64   // the client span, in a traced phase
	// Reported by served writes.
	pending          int
	flushNS, applyNS int64
}

// phase is what one closed-loop phase did.
type phase struct {
	logs      [][]sample // per client, in request order
	wall      time.Duration
	attempted int64
	failed    int64
}

// drive runs one closed loop per client, each sending its stream's next
// request to its target only after the previous answer arrived and was
// checked. A client stops after limits[i] requests when limits is set,
// else once dur has passed. The streams carry on from wherever an
// earlier phase left them. The first failed or wrong answer stops every
// client and is returned; it counts in attempted and failed.
func drive(ctx context.Context, streams []stream, targets []target, limits []int, dur time.Duration, tr *tracer) (phase, error) {
	ph := phase{logs: make([][]sample, len(streams))}
	errs := make([]error, len(streams))
	var attempted, failed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, t := streams[i], targets[i]
			for n := 0; !stop.Load(); n++ {
				if limits != nil && n >= limits[i] || limits == nil && time.Since(start) >= dur {
					return
				}
				o := s.next()
				cctx, id := ctx, int64(0)
				if tr != nil {
					id = tr.ids.Add(1)
					cctx = context.WithValue(ctx, spanKey{}, id)
				}
				smp := sample{kind: o.kind, span: id}
				var a answer
				var err error
				t0 := time.Now()
				if o.kind == opRead {
					a, err = t.read(cctx, o.lo, o.hi)
				} else {
					var u server.UpdateResponse
					u, err = t.write(cctx, o)
					smp.pending, smp.flushNS, smp.applyNS = u.Pending, u.FlushNS, u.ApplyNS
				}
				t1 := time.Now()
				attempted.Add(1)
				if err == nil {
					err = verify(s, o, a)
				}
				if err != nil {
					failed.Add(1)
					errs[i] = fmt.Errorf("client %d %s [%d, %d): %w", i, o.kind, o.lo, o.hi, err)
					stop.Store(true)
					return
				}
				smp.us = float64(t1.Sub(t0)) / 1e3
				if tr != nil {
					tr.record(span{ID: id, Name: "client", Op: o.kind.String(), Start: tr.since(t0), End: tr.since(t1)})
				}
				ph.logs[i] = append(ph.logs[i], smp)
			}
		}(i)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.attempted, ph.failed = attempted.Load(), failed.Load()
	return ph, errors.Join(errs...)
}

// verify checks one answered request against the client's oracle, or
// records an acked write in its model.
func verify(s stream, o op, a answer) error {
	if o.kind != opRead {
		return s.check(o, 0, 0)
	}
	count, sum, err := a.verify()
	if err != nil {
		return err
	}
	return s.check(o, count, sum)
}

// ops returns how many requests each client completed.
func (ph phase) ops() []int {
	n := make([]int, len(ph.logs))
	for i, l := range ph.logs {
		n[i] = len(l)
	}
	return n
}

// totalOps returns how many requests the phases completed.
func totalOps(phs []phase) (n int) {
	for _, ph := range phs {
		for _, l := range ph.logs {
			n += len(l)
		}
	}
	return n
}

// latencies returns the latencies of the phases' requests of the given
// kinds, in microseconds.
func latencies(phs []phase, write bool) []float64 {
	var out []float64
	for _, ph := range phs {
		for _, l := range ph.logs {
			for _, s := range l {
				if (s.kind != opRead) == write {
					out = append(out, s.us)
				}
			}
		}
	}
	return out
}
