package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of concurrent closed-loop callers on the
// request-serving workloads: one per CPU of the 2-vCPU reference
// machine, each on its own keep-alive connection.
const clients = 2

// newHTTPClient returns a client holding at most conns keep-alive
// connections to one daemon.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// newPost builds a JSON POST; a non-nil span is propagated to the
// in-process server's handler wrapper.
func newPost(url string, body []byte, sp *active) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != nil {
		req.Header.Set(traceHeader, fmt.Sprintf("%d/%d", sp.s.Trace, sp.s.ID))
	}
	return req, nil
}

// post sends a JSON body and returns the response body and the time to
// the response head; a status other than 200 is an error.
func post(hc *http.Client, url string, body []byte, sp *active) ([]byte, time.Duration, error) {
	req, err := newPost(url, body, sp)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	first := time.Since(t0)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, first, nil
}

// sample is one op as the caller saw it.
type sample struct {
	latency time.Duration // request sent → response fully read
	first   time.Duration // request sent → first response line
	err     error         // transport or correctness failure
}

// closedLoop runs ops 0..n-1 on c callers, each sending its next op only
// after the previous reply, and returns the samples in op order and the
// wall time of the whole stream.
func closedLoop(c, n int, do func(i int) (first time.Duration, err error)) ([]sample, time.Duration) {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				first, err := do(i)
				samples[i] = sample{latency: time.Since(t0), first: first, err: err}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailMean is the mean of the slowest share of xs, at least one value
// (xs is not modified).
func tailMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := max(1, int(math.Ceil(share*float64(len(s)))))
	sum := 0.0
	for _, x := range s[len(s)-k:] {
		sum += x
	}
	return sum / float64(k)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
