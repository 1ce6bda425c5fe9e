package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one radiobcastd process listening on a loopback port.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	launched time.Time

	mu      sync.Mutex
	log     bytes.Buffer
	logDone chan struct{}
}

// command prepares one of the binaries under test. The child dies with
// the benchmark even if the benchmark is killed.
func command(e *env, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// startDaemon launches radiobcastd with args on an ephemeral loopback
// port and returns once /readyz answers 200.
func startDaemon(e *env, args []string) (*daemon, error) {
	d := &daemon{logDone: make(chan struct{})}
	d.cmd = command(e, "radiobcastd", append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	d.launched = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if _, a, ok := strings.Cut(line, "serving on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		d.kill()
		return nil, fmt.Errorf("radiobcastd exited during start-up:\n%s", d.logText())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("radiobcastd did not start listening within 60s:\n%s", d.logText())
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(d.launched) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("radiobcastd not ready within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// kill stops the process without a drain and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.logDone
	_ = d.cmd.Wait()
}

// stop sends SIGTERM, waits for the graceful drain and reaps the
// process. A drain that does not end cleanly is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("radiobcastd did not exit within 30s of SIGTERM")
	}
	err := d.cmd.Wait()
	if err != nil {
		return fmt.Errorf("radiobcastd: %v\n%s", err, d.logText())
	}
	if !strings.Contains(d.logText(), "drained cleanly") {
		return fmt.Errorf("radiobcastd did not drain cleanly:\n%s", d.logText())
	}
	return nil
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %q", s)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrapeMetrics reads the unlabeled series of a Prometheus text page
// (the daemon's session, store and panic counters).
func scrapeMetrics(hc *http.Client, base string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// counterDelta is after − before for one metric family.
func counterDelta(before, after map[string]float64, name string) float64 {
	return after["radiobcastd_"+name] - before["radiobcastd_"+name]
}

// sessionCounters are the /metrics series reported around every timed
// phase.
var sessionCounters = []string{
	"session_cache_hits_total", "session_cache_misses_total",
	"session_cache_coalesced_total", "session_cache_evictions_total",
	"session_store_hits_total", "session_store_misses_total",
	"session_store_writes_total", "panics_total",
}

// counterNote renders the counter deltas of the timed phases.
func counterNote(deltas map[string]float64) string {
	var b strings.Builder
	b.WriteString("daemon counters (timed phases):")
	for _, c := range sessionCounters {
		fmt.Fprintf(&b, " %s=%g", strings.TrimSuffix(c, "_total"), deltas[c])
	}
	return b.String()
}

// envelope describes the machine and the build the numbers belong to.
func envelope(e *env, w workload) map[string]any {
	return map[string]any{
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       commit(e.root),
		"source_sha":   sourceDigest(e.root),
		"seed":         e.seed,
		"seconds":      e.seconds,
		"smoke":        e.smoke,
		"daemon_flags": strings.Join(w.flags, " "),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git HEAD of the source tree, or "none" outside a
// repository; sourceDigest identifies the tree either way.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod (the benchmark's
// own directory and build output excluded), so a result names the code
// it measured even when the tree is not a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := de.Name()
		if de.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			rel, _ := filepath.Rel(root, p)
			b, err := os.ReadFile(p)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
