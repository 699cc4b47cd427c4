package main

import (
	"time"
)

// layerInputs is what the untraced phase of a traced run measured.
type layerInputs struct {
	untraced     []phase
	utime, ttime time.Duration
	mallocs      uint64
	pauseNS      uint64
	gcs          uint32
}

// layerMetrics computes every per-layer metric of a traced run. A layer
// that does not run on the workload, or is not replayed on it, reports
// 0: cluster.* outside cluster-read, core.* where clients write or the
// data is split over backends, updates.* and the write metrics where no
// client writes. So does a p99 with fewer than 10 samples beyond it.
func layerMetrics(out *outcome, w workload, tr *tracer, sessions []tracedSession, runs map[string]*rungRun, in layerInputs) {
	pct := tailOrZero
	var traced []phase
	var touched, swaps, readOnly, exclusive int64
	for _, ts := range sessions {
		traced = append(traced, ts.ph)
		touched += ts.after.Touched - ts.before.Touched
		swaps += ts.after.Swaps - ts.before.Swaps
		readOnly += ts.readsRO
		exclusive += ts.readsExcl
	}
	reads := float64(len(latencies(traced, false)))

	out.set("column.touched_per_read", ratio(float64(touched), reads), "count")
	out.set("column.swaps_per_read", ratio(float64(swaps), reads), "count")

	var coreLat []float64
	var cracks, pieces int
	if rr := runs["core"]; rr != nil {
		coreLat = latencies(rr.phs, false)
		for k := range rr.phs {
			cracks += rr.after[k].Cracks - rr.before[k].Cracks
		}
		pieces = rr.after[len(rr.after)-1].Pieces
	}
	out.set("core.busy_s", busy(runs["core"]), "s")
	out.set("core.read_p50_us", pct(coreLat, 50), "us")
	out.set("core.read_p99_us", pct(coreLat, 99), "us")
	out.set("core.cracks_per_read", ratio(float64(cracks), float64(len(coreLat))), "count")
	out.set("core.pieces_end", float64(pieces), "count")
	out.set("exec.busy_s", busy(runs["exec"]), "s")
	out.set("exec.readonly_ratio", ratio(float64(readOnly), float64(readOnly+exclusive)), "ratio")
	out.set("crackdb.busy_s", busy(runs["crackdb"]), "s")

	// Writes report their pending depth and lock-wait and apply times.
	var pending, flush, apply []float64
	for _, ph := range traced {
		for _, l := range ph.logs {
			for _, s := range l {
				if s.kind != opRead {
					pending = append(pending, float64(s.pending))
					flush = append(flush, float64(s.flushNS)/1e3)
					apply = append(apply, float64(s.applyNS)/1e3)
				}
			}
		}
	}
	out.set("updates.pending_p99", pct(pending, 99), "count")
	out.set("exec.write_flush_p99_us", pct(flush, 99), "us")
	out.set("exec.write_apply_p99_us", pct(apply, 99), "us")

	// Spans: the first hop a client request meets is the coordinator on
	// cluster-read, else the server.
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	child := func(parent int64, name string) (span, bool) {
		for _, s := range children[parent] {
			if s.Name == name {
				return s, true
			}
		}
		return span{}, false
	}
	hop := "server"
	if w.cluster {
		hop = "coordinator"
	}
	var handler, wire, clusterSelf []float64
	var respBytes int64
	var fanout int
	for _, s := range spans {
		if s.Op != "read" {
			continue
		}
		switch s.Name {
		case "server":
			handler = append(handler, s.us())
			respBytes += s.Bytes
		case "client":
			if h, ok := child(s.ID, hop); ok {
				wire = append(wire, s.us()-h.us())
			}
		case "coordinator":
			var kids []interval
			for _, k := range children[s.ID] {
				kids = append(kids, k.interval())
			}
			clusterSelf = append(clusterSelf, float64(selfTime(s.interval(), kids))/1e3)
			fanout += len(kids)
		}
	}
	// The server's self time is its handler span minus the crackdb rung's
	// time for the same request: the gap to the rung below.
	var serverSelf []float64
	if rr := runs["crackdb"]; rr != nil && !w.cluster {
		for k, ts := range sessions {
			for i, l := range ts.ph.logs {
				for j, s := range l {
					if h, ok := child(s.span, "server"); ok && s.kind == opRead {
						serverSelf = append(serverSelf, h.us()-rr.phs[k].logs[i][j].us)
					}
				}
			}
		}
	}
	out.set("server.handler_p50_us", pct(handler, 50), "us")
	out.set("server.handler_p99_us", pct(handler, 99), "us")
	out.set("server.self_p50_us", pct(serverSelf, 50), "us")
	out.set("server.resp_bytes_per_read", ratio(float64(respBytes), float64(len(handler))), "B")
	out.set("wire.self_p50_us", pct(wire, 50), "us")
	out.set("wire.self_p99_us", pct(wire, 99), "us")
	out.set("cluster.self_p50_us", pct(clusterSelf, 50), "us")
	out.set("cluster.self_p99_us", pct(clusterSelf, 99), "us")
	out.set("cluster.fanout_per_read", ratio(float64(fanout), float64(len(clusterSelf))), "count")

	uops, tops := totalOps(in.untraced), totalOps(traced)
	out.set("proc.allocs_per_op", ratio(float64(in.mallocs), float64(uops)), "count")
	out.set("proc.gc_pause_ms", float64(in.pauseNS)/1e6, "ms")
	out.set("proc.gc_cycles", float64(in.gcs), "count")
	out.set("trace.overhead_ratio", ratio(float64(tops)/in.ttime.Seconds(), float64(uops)/in.utime.Seconds()), "ratio")

	// The client-observed metrics that carry no end-to-end bound (see
	// README.md), from the untraced phase.
	writes := latencies(in.untraced, true)
	out.set("ops_per_s", float64(uops)/in.utime.Seconds(), "1/s")
	out.set("read_p99_us", pct(latencies(in.untraced, false), 99), "us")
	out.set("write_p50_us", pct(writes, 50), "us")
	out.set("write_p99_us", pct(writes, 99), "us")
	out.set("fail_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")

	out.info["samples"] = map[string]int{
		"untraced_ops": uops, "traced_ops": tops, "traced_reads": int(reads), "writes": len(pending),
		"core_reads": len(coreLat), "handler_reads": len(handler), "wire": len(wire),
		"server_self": len(serverSelf), "coordinator_reads": len(clusterSelf),
	}
}

// busy returns the seconds a rung spent inside its entry points during
// the traced requests, 0 for a rung that did not run.
func busy(rr *rungRun) float64 {
	if rr == nil {
		return 0
	}
	var us float64
	for _, ph := range rr.phs {
		for _, l := range ph.logs {
			for _, s := range l {
				us += s.us
			}
		}
	}
	return us / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
