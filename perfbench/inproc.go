package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"radiobcast"
	"radiobcast/internal/httpd"
)

// traceHeader carries "trace/parent" from the benchmark's client to the
// handler wrapper, so the handler span joins the op's trace.
const traceHeader = "Bench-Trace"

// inproc is an httpd.Server served in this process on a loopback port,
// with its handler wrapped in a span when a tracer is attached.
type inproc struct {
	sess *radiobcast.Session
	hs   *http.Server
	base string
	hc   *http.Client
	done chan struct{}
}

func startInproc(cfg httpd.Config, tr *tracer, conns int) (*inproc, error) {
	if err := cfg.Session.Err(); err != nil {
		return nil, err
	}
	p := &inproc{sess: cfg.Session, hc: newHTTPClient(conns), done: make(chan struct{})}
	h := httpd.New(cfg).Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			trace, parent, ok := parseTraceHeader(r.Header.Get(traceHeader))
			if !ok {
				inner.ServeHTTP(w, r)
				return
			}
			sp := tr.start(trace, parent, "httpd.handler", "")
			inner.ServeHTTP(w, r)
			sp.end()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	p.hs = &http.Server{Handler: h}
	go func() {
		defer close(p.done)
		_ = p.hs.Serve(ln)
	}()
	return p, nil
}

// close shuts the server down and drains its Session.
func (p *inproc) close() error {
	p.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	<-p.done
	if cerr := p.sess.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

func parseTraceHeader(v string) (trace, parent int64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	t, err1 := strconv.ParseInt(a, 10, 64)
	p, err2 := strconv.ParseInt(b, 10, 64)
	return t, p, err1 == nil && err2 == nil
}

// handlerTime finds the handler span of trace. The server goroutine ends
// that span when the handler returns, which can be just after the client
// has read the last byte, so this waits for it briefly.
func (t *tracer) handlerTime(trace int64) (time.Duration, error) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Microsecond) {
		t.mu.Lock()
		for i := len(t.spans) - 1; i >= 0; i-- {
			if t.spans[i].Trace == trace && t.spans[i].Name == "httpd.handler" {
				d := t.spans[i].dur()
				t.mu.Unlock()
				return d, nil
			}
		}
		t.mu.Unlock()
	}
	return 0, fmt.Errorf("no handler span for trace %d", trace)
}

// tracedPass is one in-process pass over a workload's stream: ops run on
// conns closed-loop callers until the window ends, at least one each.
type tracedPass struct {
	conns int
	until time.Time
	op    func(i int) (ops int, err error)
}

// run returns the ops completed, the wall time and the failures.
func (p tracedPass) run(rep *report) (int, time.Duration) {
	var (
		mu  sync.Mutex
		ops int
		wg  sync.WaitGroup
		nxt int
	)
	start := time.Now()
	for range p.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(p.until); first = false {
				mu.Lock()
				i := nxt
				nxt++
				mu.Unlock()
				n, err := p.op(i)
				mu.Lock()
				ops += n
				rep.attempted += n
				if err != nil {
					rep.fail("op %d: %v", i, err)
					rep.failed += n - 1
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(start)
}
