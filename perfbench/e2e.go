package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// cycleSpec describes one workload's end-to-end cycle: optionally
// populate a fresh store with the labeler, launch a daemon (cold),
// optionally warm it, then serve a fixed-size request stream and stop
// the daemon. Cycles repeat until the measuring window is spent; every
// end-to-end metric is pooled or taken as a median over the cycles.
type cycleSpec struct {
	// populate, when set, is a labeler -populate spec run into the
	// cycle's fresh store before the daemon starts; populated then
	// checks what the labeler stored.
	populate  string
	populated func(store string) error
	// flags are the daemon flags; store is the cycle's populated store
	// directory.
	flags func(store string) []string
	// warm, when set, runs after readiness and counts as set-up.
	warm func(base string, hc *http.Client) error
	// conns is the number of closed-loop callers.
	conns int
	// requests is the length of one cycle's stream.
	requests int
	// send performs request i of the run's stream (i counts across
	// cycles) and returns the time to the first response line and the
	// number of ops the request carried.
	send func(base string, hc *http.Client, i int) (first time.Duration, ops int, err error)
}

// minCycles bounds the cycles of a run from below, so the set-up,
// populate and restart medians always have several samples.
const minCycles = 3

// runCycles executes cycles until the window is spent and fills the
// end-to-end metrics of rep. It returns the counter deltas of the timed
// phases.
func runCycles(e *env, c cycleSpec, rep *report) (map[string]float64, error) {
	// Per-cycle figures are reduced by their median, so a burst of CPU
	// steal that slows one cycle does not move the run's result.
	var (
		setups, populates, restarts, rss []float64
		throughput, cpuPerOp             []float64
		lat, first                       []float64
		ops                              int
		counters                         = map[string]float64{}
	)
	least := minCycles
	if e.smoke {
		least = 1
	}
	for cycle := 0; cycle < least || time.Now().Before(e.deadline()); cycle++ {
		store := filepath.Join(e.out, fmt.Sprintf("store-%d-%d", os.Getpid(), cycle))
		_ = os.RemoveAll(store)
		if c.populate != "" {
			t0 := time.Now()
			if out, err := command(e, "labeler", "-store", store, "-populate", c.populate).CombinedOutput(); err != nil {
				return nil, fmt.Errorf("labeler -populate %q: %v\n%s", c.populate, err, out)
			}
			populates = append(populates, time.Since(t0).Seconds())
			if err := c.populated(store); err != nil {
				return nil, err
			}
		}

		d, err := startDaemon(e, c.flags(store))
		if err != nil {
			return nil, err
		}
		hc := newHTTPClient(c.conns)
		err = func() error {
			if c.warm != nil {
				if err := c.warm(d.base, hc); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
			setups = append(setups, time.Since(d.launched).Seconds())
			before, err := scrapeMetrics(hc, d.base)
			if err != nil {
				return err
			}
			cpu0, err := d.cpu()
			if err != nil {
				return err
			}
			base := cycle * c.requests
			opsOf := make([]int, c.requests)
			samples, wall := closedLoop(c.conns, c.requests, func(i int) (time.Duration, error) {
				f, n, err := c.send(d.base, hc, base+i)
				opsOf[i] = n
				return f, err
			})
			restarts = append(restarts, time.Since(d.launched).Seconds())
			cpu1, err := d.cpu()
			if err != nil {
				return err
			}
			peak, err := d.peakRSSMB()
			if err != nil {
				return err
			}
			after, err := scrapeMetrics(hc, d.base)
			if err != nil {
				return err
			}
			for _, name := range sessionCounters {
				counters[name] += counterDelta(before, after, name)
			}
			cycleOps := 0
			for _, n := range opsOf {
				cycleOps += max(n, 1)
			}
			ops += cycleOps
			throughput = append(throughput, float64(cycleOps)/wall.Seconds())
			cpuPerOp = append(cpuPerOp, ms(cpu1-cpu0)/float64(cycleOps))
			rss = append(rss, peak)
			for i, s := range samples {
				n := max(opsOf[i], 1)
				rep.attempted += n
				if s.err != nil {
					rep.fail("request %d: %v", base+i, s.err)
					rep.failed += n - 1
					continue
				}
				lat = append(lat, ms(s.latency))
				first = append(first, ms(s.first))
			}
			return nil
		}()
		hc.CloseIdleConnections()
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
		_ = os.RemoveAll(store)
		if err != nil {
			return nil, err
		}
	}
	if counters["panics_total"] != 0 {
		rep.fail("daemon recovered %g handler panics", counters["panics_total"])
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("throughput_ops_per_s", median(throughput), "ops/s")
	rep.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	// The tail is guarded by the mean of its slowest 1% rather than by
	// the p99 itself: on serve-zipf the p99 sits among the few O(n²)
	// gnp-sparse/4096 builds, where it jumps between their clean and
	// their CPU-contended times as the shared host's load shifts.
	rep.set("latency_tail_ms", tailMean(lat, 0.01), "ms")
	rep.set("first_cell_ms", median(first), "ms")
	rep.set("cpu_ms_per_op", median(cpuPerOp), "ms")
	rep.set("max_rss_mb", median(rss), "MiB")
	rep.set("restart_s", median(restarts), "s")
	if c.populate != "" {
		// Not a result metric: the labeler's many fsyncs make its wall
		// time too noisy on a shared disk to hold a change to.
		rep.notef("populate_s: %.4f s (median of %d labeler -populate runs)", median(populates), len(populates))
	}
	rep.notef("latency_p99_ms: %.4f ms (pooled over the cycles; not a result metric)", quantile(lat, 0.99))
	rep.notef("cycles: %d; requests: %d (%d latency samples); ops: %d", len(setups), len(setups)*c.requests, len(lat), ops)
	rep.notef("%s", counterNote(counters))
	return counters, nil
}
