package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// tracedSession is one served session's traced phase, with what a rung
// needs to replay it: how many requests each client sent before the
// traced phase and during it, and the served counters around it.
type tracedSession struct {
	c                  config
	ph                 phase
	before, after      core.Stats
	readsRO, readsExcl int64 // executor read-only and exclusive answers during the phase
	from, ops          []int
}

// rungRun is one rung's replay of every traced session.
type rungRun struct {
	phs    []phase
	before []core.Stats // counters when the replay reached the traced phase
	after  []core.Stats
}

// traceRun makes a traced run: an untraced served phase of dur, a traced
// one of the same length, then replays of the traced sessions against
// the in-process rungs. It reports the per-layer metrics.
func traceRun(ctx context.Context, w workload, c config, dur time.Duration, spansPath string) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()
	var untraced []phase
	var sessions []tracedSession
	var utime, ttime time.Duration
	var mallocs, pauseNS uint64
	var gcs uint32

	// untracedPhase runs one untraced phase, taking the process-wide
	// allocation and GC deltas across it.
	untracedPhase := func(s *session) error {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ph, err := s.run(ctx, w, dur, nil)
		runtime.ReadMemStats(&m1)
		out.count(ph)
		mallocs += m1.Mallocs - m0.Mallocs
		pauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		gcs += m1.NumGC - m0.NumGC
		untraced = append(untraced, ph)
		utime += ph.wall
		return err
	}
	tracedPhase := func(s *session, sc config, from []int) error {
		runtime.GC()
		before, r0, w0 := s.st.stats()
		tr.on.Store(true)
		ph, err := s.run(ctx, w, dur, tr)
		tr.on.Store(false)
		after, r1, w1 := s.st.stats()
		out.count(ph)
		sessions = append(sessions, tracedSession{
			c: sc, ph: ph, before: before, after: after, readsRO: r1 - r0, readsExcl: w1 - w0,
			from: from, ops: ph.ops(),
		})
		ttime += ph.wall
		return err
	}

	if w.sweep > 0 {
		// Whole cold sweeps, each on a fresh stack and from its own seed,
		// for dur untraced, then for dur traced.
		k := 0
		for ; len(untraced) == 0 || utime < dur; k++ {
			if err := withSession(ctx, w, c.sweepConfig(k), tr, untracedPhase); err != nil {
				return out, err
			}
		}
		for ; len(sessions) == 0 || ttime < dur; k++ {
			sc := c.sweepConfig(k)
			err := withSession(ctx, w, sc, tr, func(s *session) error {
				return tracedPhase(s, sc, make([]int, w.clients))
			})
			if err != nil {
				return out, err
			}
		}
	} else {
		err := withSession(ctx, w, c, tr, func(s *session) error {
			if err := untracedPhase(s); err != nil {
				return err
			}
			return tracedPhase(s, c, untraced[0].ops())
		})
		if err != nil {
			return out, err
		}
	}
	if err := tr.writeSpans(spansPath); err != nil {
		return out, err
	}
	out.info["spans"] = spansPath

	runs := map[string]*rungRun{}
	if !w.cluster {
		for _, r := range rungs {
			if r.reads && w.writePct > 0 {
				continue
			}
			rr, err := replay(ctx, w, r, sessions)
			if err != nil {
				return out, fmt.Errorf("%s rung: %w", r.name, err)
			}
			runs[r.name] = rr
		}
	}
	if err := ladderCheck(out, w, sessions, runs); err != nil {
		return out, err
	}
	layerMetrics(out, w, tr, sessions, runs, layerInputs{
		untraced: untraced, utime: utime, ttime: ttime,
		mallocs: mallocs, pauseNS: pauseNS, gcs: gcs,
	})
	return out, nil
}

// withSession opens a session, runs f on it and closes it.
func withSession(ctx context.Context, w workload, c config, tr *tracer, f func(*session) error) error {
	s, _, err := openSession(ctx, w, c, tr)
	if err != nil {
		return err
	}
	defer s.close()
	return f(s)
}

// replay runs every traced session's request sequence against a fresh
// build of the rung: the warm-up, the requests sent before the traced
// phase, then the traced phase's own requests, which are the ones timed.
// Concurrent clients replay concurrently, each on its own stream, so
// every client's answers stay checkable.
func replay(ctx context.Context, w workload, r rung, sessions []tracedSession) (*rungRun, error) {
	rr := &rungRun{}
	for _, ts := range sessions {
		c := ts.c
		newTarget, stats, err := r.build(c)
		if err != nil {
			return nil, err
		}
		targets := make([]target, w.clients)
		streams := make([]stream, w.clients)
		for i := range targets {
			targets[i], streams[i] = newTarget(), w.newStream(c, i)
		}
		if err := w.warmUp(ctx, c, targets[0].read); err != nil {
			return nil, &wrongAnswer{err}
		}
		if _, err := drive(ctx, streams, targets, ts.from, 0, nil); err != nil {
			return nil, &wrongAnswer{err}
		}
		rr.before = append(rr.before, stats())
		runtime.GC()
		ph, err := drive(ctx, streams, targets, ts.ops, 0, nil)
		if err != nil {
			return nil, &wrongAnswer{err}
		}
		rr.phs = append(rr.phs, ph)
		rr.after = append(rr.after, stats())
	}
	return rr, nil
}

// ladderCheck records every rung's final counters and, where the served
// sequence is one client's reads, requires the exec, crackdb and served
// rungs to agree on them, so the gaps between rungs compare equal engine
// work. The core rung bypasses the executor's read-only path and may
// crack more; it is recorded, not compared.
func ladderCheck(out *outcome, w workload, sessions []tracedSession, runs map[string]*rungRun) error {
	type counters struct{ Queries, Touched, Swaps, Cracks, Pieces int64 }
	sum := func(ss []core.Stats) (t counters) {
		for _, s := range ss {
			t.Queries += s.Queries
			t.Touched += s.Touched
			t.Swaps += s.Swaps
			t.Cracks += int64(s.Cracks)
			t.Pieces += int64(s.Pieces)
		}
		return t
	}
	var served []core.Stats
	for _, ts := range sessions {
		served = append(served, ts.after)
	}
	ladder := map[string]counters{"served": sum(served)}
	for name, rr := range runs {
		ladder[name] = sum(rr.after)
	}
	out.info["ladder"] = ladder
	if w.clients > 1 || w.writePct > 0 || w.cluster {
		out.info["ladder_check"] = "not compared: the served interleaving of concurrent clients is not replayable"
		if w.cluster {
			out.info["ladder_check"] = "not compared: the served engine work is split over two backends"
		}
		return nil
	}
	s := ladder["served"]
	for _, name := range []string{"exec", "crackdb"} {
		r := ladder[name]
		if r.Queries != s.Queries || r.Touched != s.Touched || r.Cracks != s.Cracks {
			return &wrongAnswer{fmt.Errorf("ladder mismatch: %s rung ended with %+v, served with %+v", name, r, s)}
		}
	}
	out.info["ladder_check"] = "passed: exec, crackdb and served agree on queries, touched and cracks"
	return nil
}
