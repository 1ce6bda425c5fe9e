// Command perfbench is radiobcast's end-to-end benchmark. It drives the
// radiobcastd and labeler binaries built from the source tree under test
// on one named workload, checks every response against an in-process
// reference, and prints a human-readable report followed by one JSON
// result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (daemon processes,
// real restarts, CPU and RSS of the daemon). With -trace 1 the same
// workload is served by an in-process httpd.Server while this package
// times the calls into each layer's public entry points; the spans are
// kept in memory and written to one file at the end, and the metrics are
// the per-layer ledger. See README.md for the workloads and metrics.
//
// perfbench is normally started through run.py, which builds the
// binaries first:
//
//	python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 30 --trace 0
//	python3 perfbench/run.py --smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is what every workload receives: where the binaries and the
// work directory live, and the run's parameters.
type env struct {
	root    string // source tree under test
	bin     string // directory holding radiobcastd and labeler
	out     string // work directory for stores and traces
	seed    uint64
	seconds float64
	smoke   bool
	start   time.Time
}

// cycle is the stream length of one end-to-end cycle: n, or a handful
// of requests in smoke mode.
func (e *env) cycle(n int) int {
	if e.smoke {
		return min(n, 40)
	}
	return n
}

// deadline is the end of the measuring window.
func (e *env) deadline() time.Time {
	return e.start.Add(time.Duration(e.seconds * float64(time.Second)))
}

// report accumulates one run's outcome.
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
	order     []string // metric names in insertion order, for the text report
	notes     []string // human-readable lines printed before the result
	firstErr  string   // first correctness failure, for the text report
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{value, unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one incorrect or failed op.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// workload is one named traffic mix (README.md says why each exists).
type workload struct {
	name   string
	run    func(*env) (*report, error) // end-to-end, daemon processes
	traced func(*env) (*report, error) // per-layer, in-process server
	flags  []string                    // daemon flags, for the envelope
}

var workloads = []workload{
	{"serve-zipf", runServeZipf, tracedServeZipf, serveZipfFlags},
	{"store-restart", runStoreRestart, tracedStoreRestart, append([]string{"-store", "DIR"}, storeRestartFlags...)},
	{"sweep-grid", runSweepGrid, tracedSweepGrid, sweepGridFlags},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\" (with -smoke)")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same requests")
		seconds = flag.Float64("seconds", 10, "length of the measuring window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced in-process run")
		root    = flag.String("root", ".", "root of the radiobcast source tree")
		bin     = flag.String("bin", "", "directory with the radiobcastd and labeler binaries")
		out     = flag.String("out", "", "work directory (stores, traces)")
		smoke   = flag.Bool("smoke", false, "tiny inputs, for checking that the benchmark still works")
	)
	flag.Parse()
	if *bin == "" || *out == "" {
		fatalf("-bin and -out are required")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	names := []string{*name}
	if *name == "all" {
		if !*smoke {
			fatalf("-workload all is only for -smoke")
		}
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	e := &env{root: *root, bin: *bin, out: *out, seed: *seed, seconds: *seconds, smoke: *smoke}
	for _, p := range []*string{&e.root, &e.bin, &e.out} {
		abs, err := filepath.Abs(*p)
		if err != nil {
			fatalf("%v", err)
		}
		*p = abs
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fatalf("%v", err)
	}

	ok := true
	for _, n := range names {
		w, found := lookupWorkload(n)
		if !found {
			fatalf("unknown workload %q", n)
		}
		if !runOne(e, w, *trace == 1) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its report; it reports whether
// every op was correct.
func runOne(e *env, w workload, traced bool) bool {
	e.start = time.Now()
	fn := w.run
	if traced {
		fn = w.traced
	}
	rep, err := fn(e)
	if err != nil {
		// A workload that cannot finish prints no result line.
		fatalf("%s: %v", w.name, err)
	}
	fmt.Printf("== %s (seed %d, %s, %.1fs)\n", w.name, e.seed, map[bool]string{false: "end-to-end", true: "traced"}[traced], time.Since(e.start).Seconds())
	fmt.Printf("envelope: %s\n", mustJSON(envelope(e, w)))
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, name := range rep.order {
		m := rep.metrics[name]
		fmt.Printf("  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("  %-34s %14.4f %s (%d of %d ops)\n", "error_rate", errRate, "ratio", rep.failed, rep.attempted)
	if rep.firstErr != "" {
		fmt.Printf("first failure: %s\n", rep.firstErr)
	}
	correct := rep.failed == 0 && rep.attempted > 0
	fmt.Println(mustJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, rep.metrics}))
	return correct
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// joinInts renders a comma-separated list, the labeler -populate syntax.
func joinInts(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}
