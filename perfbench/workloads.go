package main

import (
	"context"
	"fmt"

	gen "repro/internal/workload"
)

// workload is one named traffic mix (BENCHMARK.json says why each was
// chosen). All loops are closed: each client sends its next request only
// after the previous answer arrived.
type workload struct {
	name    string
	clients int
	width   int64 // read width in values, which is rows per answer
	// sweep > 0 runs cold Sequential sweeps of this many reads, each
	// against a freshly built, uncracked column.
	sweep int
	// warm runs untimed Random reads of the same width first, so the
	// timed reads meet a converged column.
	warm     bool
	writePct int  // share of writes, in percent (mixed-rw)
	cluster  bool // serve through a coordinator over two backends
}

var workloads = []workload{
	{name: "seq-cold", clients: 1, width: 10, sweep: 10_000},
	{name: "wide-warm", clients: 1, width: 10_000, warm: true},
	{name: "mixed-rw", clients: 2, width: 10, warm: true, writePct: 20},
	{name: "cluster-read", clients: 1, width: 1_000, warm: true, cluster: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// config is one run's fixed inputs.
type config struct {
	n    int64  // rows: the data is a seeded permutation of [0, n)
	seed uint64 // seeds the data, the algorithm and every request stream
}

// Seeds of the request streams, derived from the run's seed so that the
// data permutation, the warm-up and each client draw independent
// sequences.
func (c config) warmSeed() uint64            { return c.seed + 1_000 }
func (c config) clientSeed(i int) uint64     { return c.seed + 2_000 + uint64(i) }
func (c config) halfOf(i int) (int64, int64) { return int64(i) * c.n / 2, int64(i+1) * c.n / 2 }

// sweepConfig is the config of a sweep workload's k-th cold pass: each
// pass draws its own data and algorithm seed, so a run averages over
// independent passes.
func (c config) sweepConfig(k int) config { return config{n: c.n, seed: c.seed*1000 + uint64(k)} }

// newStream builds client i's request stream from the start.
func (w workload) newStream(c config, i int) stream {
	switch {
	case w.sweep > 0:
		return &permStream{n: c.n, g: gen.Sequential(gen.Params{N: c.n, Q: w.sweep, S: w.width})}
	case w.writePct > 0:
		lo, hi := c.halfOf(i)
		return newMixedStream(lo, hi, w.width, w.writePct, c.clientSeed(i))
	default:
		return &permStream{n: c.n, g: gen.Random(gen.Params{N: c.n, S: w.width, Seed: c.clientSeed(i)})}
	}
}

// warmReads is the length of the untimed warm-up: 2n/1000 random reads
// leave no piece much above the 4096-tuple (32 KB, L1-sized) threshold
// under which DD1R stops adding random cracks.
func warmReads(n int64) int { return int(2 * n / 1000) }

// warmUp replays the workload's warm-up through read, checking every
// answer against the permutation oracle. Every layer runs the identical
// warm-up, so their engines enter the timed phase in the same state.
func (w workload) warmUp(ctx context.Context, c config, read func(ctx context.Context, lo, hi int64) (answer, error)) error {
	if !w.warm {
		return nil
	}
	s := &permStream{n: c.n, g: gen.Random(gen.Params{N: c.n, S: w.width, Seed: c.warmSeed()})}
	for range warmReads(c.n) {
		o := s.next()
		a, err := read(ctx, o.lo, o.hi)
		if err != nil {
			return fmt.Errorf("warm-up read [%d, %d): %w", o.lo, o.hi, err)
		}
		count, sum, err := a.verify()
		if err != nil {
			return fmt.Errorf("warm-up read [%d, %d): %w", o.lo, o.hi, err)
		}
		if err := s.check(o, count, sum); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// answer is what one layer returned for a read. Served answers carry the
// server's own count and sum beside the values; in-process layers return
// values only.
type answer struct {
	vals   []int64
	count  int
	sum    int64
	summed bool // count and sum came from the layer
}

// verify returns the answer's count and sum, checking a served answer's
// count and sum against its values.
func (a answer) verify() (count, sum int64, err error) {
	for _, v := range a.vals {
		sum += v
	}
	count = int64(len(a.vals))
	if a.summed && (int64(a.count) != count || a.sum != sum) {
		return 0, 0, fmt.Errorf("answer says count %d sum %d, its values give count %d sum %d", a.count, a.sum, count, sum)
	}
	return count, sum, nil
}
