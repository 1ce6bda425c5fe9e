package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// a trace id; parent is the id of the span that caused this one (0 for
// the op's root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`          // layer.call, e.g. "graph.freeze"
	Tag    string `json:"tag,omitempty"` // scheme, where the cost depends on it
	Start  int64  `json:"start_ns"`      // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and counts in memory until the run ends.
type tracer struct {
	t0     time.Time
	ids    atomic.Int64
	traces atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string][]float64 // per-op observations recorded at span boundaries
	ops    map[int64]bool       // trace ids of ops
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}, ops: map[int64]bool{}}
}

// active is a started span.
type active struct {
	t *tracer
	s span
}

// newTrace returns a fresh trace id; op traces are the ones self time is
// reported for (set-up work such as a populate replay is not an op).
func (t *tracer) newTrace(op bool) int64 {
	id := t.traces.Add(1)
	if op {
		t.mu.Lock()
		t.ops[id] = true
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) start(trace, parent int64, name, tag string) *active {
	return &active{t, span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Tag: tag, Start: int64(time.Since(t.t0))}}
}

// child starts a span caused by a.
func (a *active) child(name, tag string) *active { return a.t.start(a.s.Trace, a.s.ID, name, tag) }

// end records the span and returns its duration.
func (a *active) end() time.Duration {
	a.s.End = int64(time.Since(a.t.t0))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
	return a.s.dur()
}

// timed runs f inside a child span of a.
func (a *active) timed(name, tag string, f func()) time.Duration {
	c := a.child(name, tag)
	f()
	return c.end()
}

// count records one observation of a per-op quantity (bytes, rounds).
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// durations returns the durations, in unit, of the spans called name
// (and tagged tag, unless tag is "*").
func (t *tracer) durations(name, tag string, unit time.Duration) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (tag == "*" || s.Tag == tag) {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// selfTimes sums, per layer, the self time of the spans of op traces:
// each span's duration minus the durations of its children. The handler
// span has no children of its own, because the layers it calls are timed
// by the replay beside it; so httpd's self time in an op is the handler
// time not covered by the replayed layers of that op (at least 0).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int64]time.Duration{}
	for i := range t.spans {
		children[t.spans[i].Parent] += t.spans[i].dur()
	}
	perOp := map[int64]map[string]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		if !t.ops[s.Trace] {
			continue
		}
		if perOp[s.Trace] == nil {
			perOp[s.Trace] = map[string]time.Duration{}
		}
		perOp[s.Trace][s.Name] += s.dur() - children[s.ID]
	}
	self := map[string]time.Duration{}
	for _, names := range perOp {
		replayed := time.Duration(0)
		for name, d := range names {
			layer, _, _ := strings.Cut(name, ".")
			switch layer {
			case "httpd", "client", "op", "replay":
			default:
				self[layer] += d
				replayed += d
			}
		}
		self["httpd"] += max(0, names["httpd.handler"]-replayed)
	}
	return self
}

// write stores every span as one JSON file.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	meta["spans"] = t.spans
	b, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ledger turns the spans and counts into the per-layer metrics. Every
// per-layer metric is set on every workload; a layer that does no work
// on a workload reports 0.
type ledger struct {
	t   *tracer
	rep *report
	ops int
}

// medianOf is the median of xs, or 0 when the layer recorded nothing.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func (l *ledger) spanMedian(metric, name, tag string, unit time.Duration, unitName string) {
	l.rep.set(metric, medianOf(l.t.durations(name, tag, unit)), unitName)
}

func (l *ledger) countMean(metric, name, unit string) {
	l.rep.set(metric, meanOf(l.t.counts[name]), unit)
}

func (l *ledger) countMedian(metric, name, unit string) {
	l.rep.set(metric, medianOf(l.t.counts[name]), unit)
}

// traceSchemes are the schemes the radio and core metrics are split by.
var traceSchemes = []string{"b", "back", "barb", "roundrobin", "centralized"}

// traceLayers are the modules self time is reported for.
var traceLayers = []string{"httpd", "graph", "session", "core", "codec", "store", "radio", "sweep", "faults"}

// fill sets every per-layer metric from the recorded spans and counts;
// daemon holds the session and store counter deltas of the traced pass.
func (l *ledger) fill(daemon map[string]float64) {
	ms, us := time.Millisecond, time.Microsecond
	l.spanMedian("httpd.handler_ms", "httpd.handler", "*", ms, "ms")
	l.spanMedian("httpd.decode_us", "httpd.decode", "*", us, "us")
	l.spanMedian("httpd.encode_us", "httpd.encode", "*", us, "us")
	l.countMedian("httpd.transport_ms", "httpd.transport_ms", "ms")
	l.countMean("httpd.request_bytes", "httpd.request_bytes", "bytes")
	l.countMean("httpd.response_bytes", "httpd.response_bytes", "bytes")

	l.spanMedian("graph.build_family_ms", "graph.build_family", "*", ms, "ms")
	l.spanMedian("graph.build_edges_ms", "graph.build_edges", "*", ms, "ms")
	l.spanMedian("graph.freeze_us", "graph.freeze", "*", us, "us")
	l.spanMedian("graph.fingerprint_us", "graph.fingerprint", "*", us, "us")

	hits, misses := daemon["session_cache_hits_total"], daemon["session_cache_misses_total"]
	storeHits := daemon["session_store_hits_total"]
	lookups := hits + misses + storeHits
	l.rep.set("session.hit_ratio", ratio(hits, lookups), "ratio")
	perKop := func(v float64) float64 { return ratio(1000*v, float64(l.ops)) }
	l.rep.set("session.misses_per_kop", perKop(misses), "1/kop")
	l.rep.set("session.evictions_per_kop", perKop(daemon["session_cache_evictions_total"]), "1/kop")
	l.rep.set("session.coalesced_per_kop", perKop(daemon["session_cache_coalesced_total"]), "1/kop")
	l.spanMedian("session.label_hit_us", "session.label_hit", "*", us, "us")

	for _, s := range []string{"b", "back", "barb"} {
		l.spanMedian("core.label_ms."+s, "core.label", s, ms, "ms")
	}

	l.spanMedian("codec.marshal_us", "codec.marshal", "*", us, "us")
	l.spanMedian("codec.unmarshal_us", "codec.unmarshal", "*", us, "us")
	l.countMean("codec.wire_bytes", "codec.wire_bytes", "bytes")

	l.spanMedian("store.open_ms", "store.open", "*", ms, "ms")
	l.spanMedian("store.get_us", "store.get", "*", us, "us")
	l.spanMedian("store.put_us", "store.put", "*", us, "us")
	l.rep.set("store.hit_ratio", ratio(storeHits, storeHits+daemon["session_store_misses_total"]), "ratio")
	l.countMedian("store.hit_over_recompute", "store.hit_over_recompute", "ratio")
	l.rep.set("store.corrupt", daemon["store_corrupt"], "count")
	l.rep.set("store.quarantined", daemon["store_quarantined"], "count")

	for _, s := range traceSchemes {
		l.spanMedian("radio.run_ms."+s, "radio.run", s, ms, "ms")
		l.countMedian("radio.rounds."+s, "radio.rounds."+s, "rounds")
		l.countMedian("radio.ns_per_round."+s, "radio.ns_per_round."+s, "ns")
	}
	l.countMean("radio.transmissions", "radio.transmissions", "count")

	l.spanMedian("sweep.build_ms", "sweep.build", "*", ms, "ms")
	l.spanMedian("sweep.label_ms", "sweep.label", "*", ms, "ms")
	l.countMedian("sweep.run_ms", "sweep.run_ms", "ms")
	l.countMedian("sweep.worker_busy_ratio", "sweep.worker_busy_ratio", "ratio")

	l.spanMedian("faults.faulted_run_ms", "faults.run", "*", ms, "ms")

	var line strings.Builder
	line.WriteString("self time per op (ms):")
	self := l.t.selfTimes()
	for _, layer := range traceLayers {
		v := ratio(float64(self[layer])/float64(ms), float64(l.ops))
		l.rep.set(layer+".self_ms_per_op", v, "ms")
		fmt.Fprintf(&line, " %s=%.4f", layer, v)
	}
	l.rep.notef("%s", line.String())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
