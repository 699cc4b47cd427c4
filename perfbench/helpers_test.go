package main

import (
	"context"
	"sync"
	"testing"

	"repro/internal/server"
)

func TestRankAndBeyond(t *testing.T) {
	for _, c := range []struct{ n, pct, rank, beyond int }{
		{1000, 99, 990, 10},
		{999, 99, 990, 9},
		{1001, 99, 991, 10},
		{100, 50, 50, 50},
		{1, 99, 1, 0},
		{1, 50, 1, 0},
	} {
		if got := rank(c.n, c.pct); got != c.rank {
			t.Errorf("rank(%d, %d) = %d, want %d", c.n, c.pct, got, c.rank)
		}
		if got := beyond(c.n, c.pct); got != c.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.pct, got, c.beyond)
		}
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	p99, err := percentile(samples(1000), 99)
	if err != nil || p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p99, err)
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if p50, err := percentile(samples(3), 50); err != nil || p50 != 2 {
		t.Fatalf("median of 1..3 = %v, %v; want 2", p50, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 150}}, 60},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"parallel fan-out overlaps once", []interval{{110, 160}, {120, 170}}, 40},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"touching", []interval{{110, 130}, {130, 150}}, 60},
		{"clipped to parent", []interval{{50, 120}, {180, 300}}, 60},
		{"outside parent", []interval{{0, 50}, {250, 300}}, 100},
		{"unsorted", []interval{{150, 160}, {110, 155}}, 50},
		{"covers parent", []interval{{0, 300}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPermAnswer(t *testing.T) {
	for _, c := range []struct{ n, lo, hi, count, sum int64 }{
		{10, 2, 5, 3, 2 + 3 + 4},
		{10, -5, 2, 2, 1},
		{10, 8, 20, 2, 8 + 9},
		{10, 5, 5, 0, 0},
		{10, 12, 20, 0, 0},
	} {
		count, sum := permAnswer(c.n, c.lo, c.hi)
		if count != c.count || sum != c.sum {
			t.Errorf("permAnswer(%d, %d, %d) = %d, %d; want %d, %d", c.n, c.lo, c.hi, count, sum, c.count, c.sum)
		}
	}
}

// naiveAnswer recomputes a multiset answer from explicit counts.
func naiveAnswer(counts map[int64]int, a, b int64) (count, sum int64) {
	for v, c := range counts {
		if v >= a && v < b {
			count += int64(c)
			sum += int64(c) * v
		}
	}
	return count, sum
}

func TestMultisetDeleteAndReinsert(t *testing.T) {
	m := newMultiset(100, 200)
	counts := map[int64]int{}
	for v := int64(100); v < 200; v++ {
		counts[v] = 1
	}
	apply := func(v int64, d int) {
		t.Helper()
		if err := m.add(v, d); err != nil {
			t.Fatalf("add(%d, %d): %v", v, d, err)
		}
		counts[v] += d
	}
	check := func(a, b int64) {
		t.Helper()
		gc, gs := m.answer(a, b)
		wc, ws := naiveAnswer(counts, a, b)
		if gc != wc || gs != ws {
			t.Fatalf("answer(%d, %d) = %d, %d; want %d, %d", a, b, gc, gs, wc, ws)
		}
	}
	check(0, 1000)
	apply(150, -1) // delete a present value
	if m.count(150) != 0 {
		t.Fatal("deleted value still counted")
	}
	if err := m.add(150, -1); err == nil {
		t.Fatal("deleting an absent value must be refused")
	}
	check(145, 155)
	check(0, 1000)
	apply(150, 1) // re-insert it
	if m.count(150) != 1 || len(m.delta) != 0 {
		t.Fatalf("re-insert: count %d, deltas %v", m.count(150), m.delta)
	}
	apply(120, 1) // a duplicate inside the range
	apply(250, 1) // a value outside the owned range
	apply(121, -1)
	for _, r := range [][2]int64{{120, 122}, {0, 1000}, {200, 300}, {119, 130}, {121, 121}} {
		check(r[0], r[1])
	}
	apply(250, -1)
	if err := m.add(250, -1); err == nil {
		t.Fatal("deleting an unowned value twice must be refused")
	}
	check(0, 1000)
}

func TestMixedStreamAgreesWithModel(t *testing.T) {
	// A stream replayed from its seed with every write acked sends the
	// same sequence, and it only deletes values its model holds.
	a := newMixedStream(0, 5000, 10, 50, 7)
	b := newMixedStream(0, 5000, 10, 50, 7)
	for i := range 5000 {
		oa, ob := a.next(), b.next()
		if oa != ob {
			t.Fatalf("op %d: %+v vs %+v", i, oa, ob)
		}
		if oa.lo < 0 || oa.lo >= 5000 || oa.kind == opRead && oa.hi > 5000 {
			t.Fatalf("op %d leaves the owned range: %+v", i, oa)
		}
		for _, s := range []*mixedStream{a, b} {
			count, sum := s.m.answer(oa.lo, oa.hi)
			if err := s.check(oa, count, sum); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
}

func TestTailOrZero(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailOrZero(xs, 99); got != 990 {
		t.Errorf("tailOrZero(1..1000, 99) = %v, want 990", got)
	}
	if got := tailOrZero(xs[:999], 99); got != 0 {
		t.Errorf("tailOrZero of 999 samples = %v, want 0", got)
	}
	if got := tailOrZero(nil, 50); got != 0 {
		t.Errorf("tailOrZero of none = %v, want 0", got)
	}
}

// memTarget is an in-memory stand-in for a layer: a multiset of values
// shared by every client, safe for concurrent use.
type memTarget struct {
	mu     sync.Mutex
	counts map[int64]int
	lie    bool // answer every read one value short
}

func newMemTarget(n int64) *memTarget {
	t := &memTarget{counts: map[int64]int{}}
	for v := range n {
		t.counts[v] = 1
	}
	return t
}

func (t *memTarget) read(_ context.Context, lo, hi int64) (answer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var vals []int64
	for v := lo; v < hi; v++ {
		for range t.counts[v] {
			vals = append(vals, v)
		}
	}
	if t.lie && len(vals) > 0 {
		vals = vals[1:]
	}
	return answer{vals: vals}, nil
}

func (t *memTarget) write(_ context.Context, o op) (server.UpdateResponse, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if o.kind == opDelete {
		t.counts[o.lo]--
	} else {
		t.counts[o.lo]++
	}
	return server.UpdateResponse{Pending: 1}, nil
}

func TestDriveConcurrentClients(t *testing.T) {
	w := workload{clients: 2, width: 10, writePct: 20}
	c := config{n: 20_000, seed: 3}
	mt := newMemTarget(c.n)
	streams := []stream{w.newStream(c, 0), w.newStream(c, 1)}
	tr := newTracer()
	tr.on.Store(true)
	ph, err := drive(context.Background(), streams, []target{mt, mt}, []int{500, 700}, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := ph.ops(); got[0] != 500 || got[1] != 700 || ph.attempted != 1200 || ph.failed != 0 {
		t.Fatalf("ops %v, attempted %d, failed %d", got, ph.attempted, ph.failed)
	}
	if len(tr.spans) != 1200 {
		t.Fatalf("%d client spans, want 1200", len(tr.spans))
	}
	if writes := latencies([]phase{ph}, true); len(writes) == 0 {
		t.Fatal("no writes in a 20% write mix")
	}
}

func TestDriveStopsOnWrongAnswer(t *testing.T) {
	w := workload{clients: 2, width: 1000}
	c := config{n: 100_000, seed: 3}
	liar, honest := newMemTarget(c.n), newMemTarget(c.n)
	liar.lie = true
	// The honest client would need far longer than the test's timeout
	// for its limit: the liar's first answer must stop it too.
	streams := []stream{w.newStream(c, 0), w.newStream(c, 1)}
	ph, err := drive(context.Background(), streams, []target{liar, honest}, []int{50, 1 << 30}, 0, nil)
	if err == nil {
		t.Fatal("a wrong answer must fail the run")
	}
	if ph.failed != 1 || len(ph.logs[0]) != 0 || ph.attempted != int64(1+len(ph.logs[1])) {
		t.Fatalf("attempted %d, failed %d, logged %d and %d", ph.attempted, ph.failed, len(ph.logs[0]), len(ph.logs[1]))
	}
}
