package main

import (
	"fmt"

	gen "repro/internal/workload"
	"repro/internal/xrand"
)

// permAnswer is the closed-form answer to [lo, hi) over a permutation of
// [0, n): every value of the clamped range occurs exactly once.
func permAnswer(n, lo, hi int64) (count, sum int64) {
	lo, hi = max(lo, 0), min(hi, n)
	if lo >= hi {
		return 0, 0
	}
	count = hi - lo
	return count, (lo + hi - 1) * count / 2
}

// multiset models the values one client owns: each value of [lo, hi)
// once at the start, adjusted by every write the client saw acked.
// Values outside [lo, hi) are never owned, so their count stays 0.
type multiset struct {
	lo, hi int64
	delta  map[int64]int // count minus the starting count, where non-zero
}

func newMultiset(lo, hi int64) *multiset {
	return &multiset{lo: lo, hi: hi, delta: map[int64]int{}}
}

// count returns how many copies of v the model holds.
func (m *multiset) count(v int64) int {
	c := m.delta[v]
	if v >= m.lo && v < m.hi {
		c++
	}
	return c
}

// add applies an acked insert (d = 1) or delete (d = -1) of v, refusing a
// delete of a value the model does not hold.
func (m *multiset) add(v int64, d int) error {
	if m.count(v)+d < 0 {
		return fmt.Errorf("model: delete of absent value %d", v)
	}
	if c := m.delta[v] + d; c != 0 {
		m.delta[v] = c
	} else {
		delete(m.delta, v)
	}
	return nil
}

// answer returns the count and sum of the model's values in [a, b).
func (m *multiset) answer(a, b int64) (count, sum int64) {
	if a >= b {
		return 0, 0
	}
	count, sum = permAnswer(m.hi, max(a, m.lo), b)
	// Narrow reads look each value up; wide ones walk the deltas.
	if b-a <= int64(len(m.delta)) {
		for v := a; v < b; v++ {
			d := int64(m.delta[v])
			count, sum = count+d, sum+d*v
		}
		return count, sum
	}
	for v, d := range m.delta {
		if v >= a && v < b {
			count, sum = count+int64(d), sum+int64(d)*v
		}
	}
	return count, sum
}

// opKind is what one client request does.
type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"read", "insert", "delete"}[k]
}

// op is one request of a client's sequence: a read of [lo, hi), or a
// write of the value lo.
type op struct {
	kind   opKind
	lo, hi int64
}

// stream is one client's deterministic request sequence together with
// the oracle for its answers. Every layer replays a client by building a
// fresh stream from the same seed, so the sequence never depends on
// timing.
type stream interface {
	next() op
	// check validates a read's count and sum, or records an acked write.
	check(o op, count, sum int64) error
}

// permStream reads ranges from one of the paper's generators over a
// permutation of [0, n), which the closed-form oracle answers.
type permStream struct {
	n int64
	g gen.Generator
}

func (s *permStream) next() op {
	lo, hi := s.g.Next()
	return op{kind: opRead, lo: lo, hi: hi}
}

func (s *permStream) check(o op, count, sum int64) error {
	wc, ws := permAnswer(s.n, o.lo, o.hi)
	if count != wc || sum != ws {
		return fmt.Errorf("read [%d, %d): got count %d sum %d, oracle says count %d sum %d", o.lo, o.hi, count, sum, wc, ws)
	}
	return nil
}

// mixedStream is one mixed-rw client: it owns the values [lo, hi) and
// revisits a fixed set of hot windows there. A read asks for a whole
// window; a write deletes a present value of a window, or re-inserts a
// deleted one, so the reads keep merging pending updates.
type mixedStream struct {
	rng      *xrand.Rand
	wins     []int64 // hot window starts
	width    int64
	writePct int
	m        *multiset
}

// hotWindows is how many windows each mixed-rw client revisits.
const hotWindows = 256

func newMixedStream(lo, hi, width int64, writePct int, seed uint64) *mixedStream {
	s := &mixedStream{rng: xrand.New(seed), width: width, writePct: writePct, m: newMultiset(lo, hi)}
	for range hotWindows {
		s.wins = append(s.wins, lo+s.rng.Int63n(hi-lo-width))
	}
	return s
}

func (s *mixedStream) next() op {
	w := s.wins[s.rng.Intn(len(s.wins))]
	if s.rng.Intn(100) >= s.writePct {
		return op{kind: opRead, lo: w, hi: w + s.width}
	}
	v := w + s.rng.Int63n(s.width)
	if s.m.count(v) > 0 {
		return op{kind: opDelete, lo: v}
	}
	return op{kind: opInsert, lo: v}
}

func (s *mixedStream) check(o op, count, sum int64) error {
	switch o.kind {
	case opInsert:
		return s.m.add(o.lo, 1)
	case opDelete:
		return s.m.add(o.lo, -1)
	}
	wc, ws := s.m.answer(o.lo, o.hi)
	if count != wc || sum != ws {
		return fmt.Errorf("read [%d, %d): got count %d sum %d, model says count %d sum %d", o.lo, o.hi, count, sum, wc, ws)
	}
	return nil
}
