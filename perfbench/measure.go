package main

import (
	"context"
	"net/http"
	"runtime"
	"time"

	"repro/internal/server"
)

// session is one served stack with its clients, whose streams carry on
// across the session's phases.
type session struct {
	st      *stack
	hc      *http.Client
	streams []stream
	targets []target
}

// openSession sets a workload up and returns how long that took: data
// generation, Open, listeners, coordinator boot, warm-up and clients,
// everything before the first timed request can be sent.
func openSession(ctx context.Context, w workload, c config, tr *tracer) (*session, time.Duration, error) {
	start := time.Now()
	st, err := startStack(ctx, w, c, tr)
	if err != nil {
		return nil, 0, err
	}
	// Keep-alive connections, one per client and never more than nproc.
	s := &session{st: st, hc: newHTTPClient(min(w.clients, runtime.NumCPU()), tr != nil)}
	for i := range w.clients {
		s.streams = append(s.streams, w.newStream(c, i))
		s.targets = append(s.targets, &servedTarget{c: server.NewClient(st.url, s.hc), hc: s.hc, base: st.url})
	}
	return s, time.Since(start), nil
}

func (s *session) close() {
	s.hc.CloseIdleConnections()
	s.st.close()
}

// run drives one timed phase: whole cold sweeps for a sweep workload,
// else dur of closed-loop traffic. Callers force a GC first, so set-up
// garbage stays out of the timed requests.
func (s *session) run(ctx context.Context, w workload, dur time.Duration, tr *tracer) (phase, error) {
	var limits []int
	if w.sweep > 0 {
		limits = []int{w.sweep}
	}
	ph, err := drive(ctx, s.streams, s.targets, limits, dur, tr)
	if err != nil {
		err = &wrongAnswer{err}
	}
	return ph, err
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. A sweep workload sets up once per sweep, at least this
// often.
const setupRepeats = 5

// measure makes an untraced run and reports the end-to-end metrics.
func measure(ctx context.Context, w workload, c config, dur time.Duration) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var phs []phase
	var timed time.Duration
	var last *session
	defer func() {
		if last != nil {
			last.close()
		}
	}()
	// Sweeps rebuild the column for every cold pass, each from its own
	// seed, and run whole passes until dur is used; the other workloads
	// time only their last set-up.
	for len(setups) < setupRepeats || w.sweep > 0 && timed < dur {
		if last != nil {
			last.close()
			last = nil
		}
		sc := c
		if w.sweep > 0 {
			sc = c.sweepConfig(len(setups))
		}
		s, setup, err := openSession(ctx, w, sc, nil)
		if err != nil {
			return out, err
		}
		last = s
		setups = append(setups, setup.Seconds())
		if w.sweep == 0 && len(setups) < setupRepeats {
			continue
		}
		runtime.GC()
		ph, err := s.run(ctx, w, dur, nil)
		out.count(ph)
		if err != nil {
			return out, err
		}
		phs = append(phs, ph)
		timed += ph.wall
		if w.sweep == 0 {
			break
		}
	}

	reads, writes := latencies(phs, false), latencies(phs, true)
	p50, err := percentile(reads, 50)
	if err != nil {
		return out, err
	}
	out.set("setup_s", median(setups), "s")
	out.set("read_p50_us", p50, "us")
	// Throughput, the read tail, write latency and the failure share are
	// not bound-checked (see README.md): they are reported on the
	// description line.
	report := map[string]metric{
		"ops_per_s":   {float64(len(reads)+len(writes)) / timed.Seconds(), "1/s"},
		"read_p99_us": {tailOrZero(reads, 99), "us"},
		"fail_ratio":  {float64(out.failed) / float64(out.attempted), "ratio"},
	}
	if len(writes) > 0 {
		report["write_p50_us"] = metric{tailOrZero(writes, 50), "us"}
		report["write_p99_us"] = metric{tailOrZero(writes, 99), "us"}
	}
	out.info["samples"] = map[string]int{"read": len(reads), "write": len(writes), "setup": len(setups)}
	out.info["setups_s"] = setups
	out.info["timed_s"] = timed.Seconds()

	// Heap per row: the request logs are dead by now, so what stays in
	// use is the served stack.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.set("heap_bytes_per_row", float64(ms.HeapInuse)/float64(c.n), "B")
	for k, m := range out.metrics {
		report[k] = m
	}
	out.info["end_to_end"] = report
	return out, nil
}
