// Command perfbench is the repository's served-path benchmark. It runs
// crackserver as it ships, in process behind loopback listeners, drives
// one named workload through it with closed-loop clients, checks every
// answer against an oracle, and prints the end-to-end metrics. With
// -trace 1 it makes a traced run instead and prints per-layer metrics:
// spans around the served layers' entry points, plus a replay of the
// same requests against the in-process rungs core, exec and crackdb.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload seq-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (each a value with its unit). The line
// before it describes the run: host, Go version, sample counts, the
// metrics that cannot be bound-checked on every workload and, for a
// traced run, the ladder counters. Any wrong answer or failed request
// makes the run exit non-zero.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	// rows is the column size: an 80 MB column, far above a core's L2.
	rows = 10_000_000
	// spanDir is where a traced run writes its spans, relative to the
	// directory the benchmark runs in.
	spanDir = ".bench_out"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: seq-cold, wide-warm, mixed-rw or cluster-read")
	seed := fs.Uint64("seed", 1, "seed of the data, the algorithm and every request stream")
	seconds := fs.Float64("seconds", 10, "seconds to measure; a traced run measures an untraced and a traced phase this long each")
	traced := fs.Int("trace", 0, "1 makes a traced run that prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "perfbench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	c := config{n: rows, seed: *seed}
	dur := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()

	var out *outcome
	if *traced == 1 {
		spans := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		out, err = traceRun(ctx, w, c, dur, spans)
	} else {
		out, err = measure(ctx, w, c, dur)
	}
	out.info["workload"] = w.name
	out.info["clients"] = w.clients
	out.info["n"] = c.n
	out.info["seed"] = c.seed
	out.info["seconds"] = *seconds
	out.info["nproc"] = runtime.NumCPU()
	out.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.info["cpu"] = cpuModel()
	out.info["go"] = runtime.Version()
	if w.cluster {
		out.info["health_probe"] = "coordinator health probe left at its shipped cadence (500ms)"
	}
	if err != nil {
		out.info["error"] = err.Error()
	}
	printJSON(stdout, map[string]any{"run": out.info})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		var wrong *wrongAnswer
		if errors.As(err, &wrong) {
			printJSON(stdout, out.result(false))
		}
		return 1
	}
	printJSON(stdout, out.result(true))
	return 0
}

// wrongAnswer marks a request that failed or was answered wrongly: the
// run is reported as incorrect.
type wrongAnswer struct{ err error }

func (e *wrongAnswer) Error() string { return e.err.Error() }
func (e *wrongAnswer) Unwrap() error { return e.err }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects a run's counts, metrics and self-description.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	info              map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, info: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// count adds a phase's requests to the run's totals.
func (o *outcome) count(ph phase) {
	o.attempted += ph.attempted
	o.failed += ph.failed
}

func (o *outcome) result(correct bool) map[string]any {
	return map[string]any{"correct": correct, "attempted": o.attempted, "failed": o.failed, "metrics": o.metrics}
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are printed
	}
	fmt.Fprintf(w, "%s\n", b)
}

// cpuModel returns the host's CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
