package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"radiobcast"
	"radiobcast/client"
	"radiobcast/internal/graph"
	"radiobcast/internal/httpd"
	"radiobcast/internal/store"
)

// The traced runs serve a workload from an httpd.Server in this process.
// Each op is one trace: a client.roundtrip span holding the server's
// httpd.handler span (handler self time; the difference is transport),
// and beside it a replay span in which this package calls the layers the
// handler called, through their public entry points, and times each
// call. Replays use a mirror Session that sees the same key sequence, so
// its cache hits and misses follow the server's. A run makes two passes
// of half the window each, first untraced and then traced; the
// difference in throughput is the tracing overhead.

// tracedWorkload is one workload's traced run.
type tracedWorkload struct {
	name  string
	conns int
	// server starts the in-process server of a pass (tr is nil on the
	// untraced pass) and returns extra per-layer counters to report.
	server func(tr *tracer) (*inproc, func() map[string]float64, error)
	// op runs op i of the stream; with a nil tracer it only sends the
	// request and checks the answer.
	op func(p *inproc, tr *tracer, i int) (ops int, err error)
	// check runs the deferred reference checks after both passes.
	check func(rep *report) error
}

func runTraced(e *env, w tracedWorkload) (*report, error) {
	rep := newReport()
	half := time.Duration(e.seconds * float64(time.Second) / 2)
	pass := func(tr *tracer) (ops int, wall time.Duration, deltas map[string]float64, err error) {
		p, extra, err := w.server(tr)
		if err != nil {
			return 0, 0, nil, err
		}
		before, err := scrapeMetrics(p.hc, p.base)
		if err == nil {
			ops, wall = tracedPass{conns: w.conns, until: time.Now().Add(half), op: func(i int) (int, error) {
				return w.op(p, tr, i)
			}}.run(rep)
			var after map[string]float64
			if after, err = scrapeMetrics(p.hc, p.base); err == nil {
				deltas = map[string]float64{}
				for _, name := range sessionCounters {
					deltas[name] = counterDelta(before, after, name)
				}
				for k, v := range extra() {
					deltas[k] = v
				}
			}
		}
		if cerr := p.close(); err == nil {
			err = cerr
		}
		return ops, wall, deltas, err
	}
	opsU, wallU, _, err := pass(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	opsT, wallT, deltas, err := pass(tr)
	if err != nil {
		return nil, err
	}
	if deltas["panics_total"] != 0 {
		rep.fail("server recovered %g handler panics", deltas["panics_total"])
	}
	if err := w.check(rep); err != nil {
		return nil, err
	}
	(&ledger{t: tr, rep: rep, ops: opsT}).fill(deltas)
	thrU, thrT := float64(opsU)/wallU.Seconds(), float64(opsT)/wallT.Seconds()
	rep.set("trace.overhead_ops_per_s", thrT-thrU, "ops/s")
	rep.notef("in-process throughput: untraced %.2f ops/s (%d ops), traced %.2f ops/s (%d ops), tracing overhead %.2f ops/s (%.1f%%)",
		thrU, opsU, thrT, opsT, thrT-thrU, 100*(thrT-thrU)/thrU)
	rep.notef("%s", counterNote(deltas))
	path := filepath.Join(e.out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := tr.write(path, map[string]any{"workload": w.name, "seed": e.seed, "ops": opsT}); err != nil {
		return nil, err
	}
	rep.notef("spans: %d, written to %s", len(tr.spans), path)
	return rep, nil
}

// noExtra is the server hook's extra counters when there are none.
func noExtra() map[string]float64 { return nil }

// roundTripSpan sends body inside op's client.roundtrip span and records
// the transport share and the byte counts.
func roundTripSpan(tr *tracer, op *active, p *inproc, path string, body []byte) ([]byte, error) {
	rt := op.child("client.roundtrip", "")
	data, _, err := post(p.hc, p.base+path, body, rt)
	d := rt.end()
	if err != nil {
		return nil, err
	}
	h, err := tr.handlerTime(op.s.Trace)
	if err != nil {
		return nil, err
	}
	tr.count("httpd.transport_ms", ms(d-h))
	tr.count("httpd.request_bytes", float64(len(body)))
	tr.count("httpd.response_bytes", float64(len(data)))
	return data, nil
}

// decodeStrict decodes a request body as the handlers do: unknown
// fields are an error.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// buildNetwork replays the handler's graph build: a family member by
// name, or an explicit edge list checked for connectivity.
func buildNetwork(rp *active, spec client.GraphSpec) (*radiobcast.Network, error) {
	var net *radiobcast.Network
	var err error
	if spec.Family != "" {
		rp.timed("graph.build_family", "", func() { net, err = radiobcast.Family(spec.Family, spec.N) })
		return net, err
	}
	rp.timed("graph.build_edges", "", func() {
		n := spec.Nodes
		for _, e := range spec.Edges {
			n = max(n, e[0]+1, e[1]+1)
		}
		g := graph.New(n)
		for _, e := range spec.Edges {
			g.AddEdge(e[0], e[1])
		}
		if !g.IsConnected() {
			err = fmt.Errorf("edge list is not connected")
			return
		}
		net = radiobcast.NewNetwork(g)
	})
	return net, err
}

// freeze replays the graph's lazy caches: the CSR and the fingerprint
// the Session keys on.
func freeze(rp *active, g *radiobcast.Graph) {
	rp.timed("graph.freeze", "", func() { g.Freeze() })
	rp.timed("graph.fingerprint", "", func() { g.Fingerprint() })
}

// mirrorLabel labels through the mirror Session, recording the call as
// core.label when it computed the labeling and session.label_hit when the
// cache served it. It reports whether the disk store served it instead;
// such calls are left to the caller to replay tier by tier.
func mirrorLabel(rp *active, mirror *radiobcast.Session, net *radiobcast.Network, scheme string, opts ...radiobcast.Option) (*radiobcast.Labeling, bool, error) {
	misses, storeHits := mirror.CacheMisses(), mirror.StoreHits()
	sp := rp.child("session.label", scheme)
	l, err := mirror.Label(context.Background(), net, scheme, opts...)
	switch {
	case mirror.StoreHits() != storeHits:
		return l, true, err
	case mirror.CacheMisses() != misses:
		sp.s.Name = "core.label"
	default:
		sp.s.Name = "session.label_hit"
	}
	sp.end()
	return l, false, err
}

// replayRun times one radio run and records its per-run counts.
func replayRun(tr *tracer, rp *active, name string, l *radiobcast.Labeling, opts ...radiobcast.Option) (*radiobcast.Outcome, time.Duration, error) {
	var out *radiobcast.Outcome
	var err error
	d := rp.timed(name, l.Scheme, func() { out, err = radiobcast.RunLabeled(l, opts...) })
	if err != nil {
		return nil, d, err
	}
	if name == "radio.run" && out.Result != nil && out.Result.Rounds > 0 {
		tr.count("radio.rounds."+l.Scheme, float64(out.Result.Rounds))
		tr.count("radio.ns_per_round."+l.Scheme, float64(d)/float64(out.Result.Rounds))
	}
	if out.Result != nil {
		tr.count("radio.transmissions", float64(out.Result.TotalTransmissions))
	}
	return out, d, nil
}

func tracedServeZipf(e *env) (*report, error) {
	r := &refs{}
	s, err := newZipfStream(e.seed, &r.g, zipfCycle)
	if err != nil {
		return nil, err
	}
	var outcomes runOutcomes
	var mirror *radiobcast.Session
	var replayMu sync.Mutex
	return runTraced(e, tracedWorkload{
		name:  "serve-zipf",
		conns: clients,
		server: func(tr *tracer) (*inproc, func() map[string]float64, error) {
			p, err := startInproc(httpd.Config{Session: radiobcast.NewSession(), RatePerSec: -1}, tr, clients)
			if err != nil {
				return nil, nil, err
			}
			mirror = radiobcast.NewSession()
			// The warm-up prefix, as on the daemon, for server and mirror.
			for _, k := range s.keys[:warmKeys] {
				body, err := s.body(zipfReq{k: k})
				if err == nil {
					_, _, err = postRun(p.hc, p.base, body)
				}
				var net *radiobcast.Network
				if err == nil {
					net, err = radiobcast.Family(k.family, k.n)
				}
				if err == nil {
					_, err = mirror.Label(context.Background(), net.At(k.source), k.scheme)
				}
				if err != nil {
					return nil, nil, fmt.Errorf("warm-up: %w", err)
				}
			}
			return p, noExtra, nil
		},
		op: func(p *inproc, tr *tracer, i int) (int, error) {
			rq := s.at(i)
			body, err := s.body(rq)
			if err != nil {
				return 1, err
			}
			if tr == nil {
				rr, _, err := postRun(p.hc, p.base, body)
				if err == nil {
					outcomes.add(i, rq.k, rr.CompletionRound)
				}
				return 1, err
			}
			op := tr.start(tr.newTrace(true), 0, "op", "")
			defer op.end()
			data, err := roundTripSpan(tr, op, p, "/v1/run", body)
			if err != nil {
				return 1, err
			}
			rr, err := decodeRun(data)
			if err != nil {
				return 1, err
			}
			outcomes.add(i, rq.k, rr.CompletionRound)
			replayMu.Lock()
			defer replayMu.Unlock()
			return 1, replayRunRequest(tr, op, mirror, body, rr)
		},
		check: func(rep *report) error { return outcomes.check(r, rep) },
	})
}

// replayRunRequest replays the /v1/run handler's layer calls for body.
func replayRunRequest(tr *tracer, op *active, mirror *radiobcast.Session, body []byte, rr *client.RunResponse) error {
	rp := op.child("replay", "")
	defer rp.end()
	var req client.RunRequest
	var err error
	rp.timed("httpd.decode", "", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return err
	}
	net, err := buildNetwork(rp, req.Graph)
	if err != nil {
		return err
	}
	net.At(req.Source).Coordinated(req.Coordinator)
	freeze(rp, net.Graph)
	l, _, err := mirrorLabel(rp, mirror, net, req.Scheme)
	if err != nil {
		return err
	}
	out, _, err := replayRun(tr, rp, "radio.run", l, radiobcast.WithSource(req.Source))
	if err != nil {
		return err
	}
	rp.timed("core.verify", req.Scheme, func() { err = radiobcast.Verify(out) })
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if out.CompletionRound != rr.CompletionRound {
		return fmt.Errorf("replay completion round %d, server %d", out.CompletionRound, rr.CompletionRound)
	}
	rp.timed("httpd.encode", "", func() { err = json.NewEncoder(io.Discard).Encode(rr) })
	return err
}

func tracedStoreRestart(e *env) (*report, error) {
	s := newRestartSet(e.seed, restartCycle)
	var (
		replayMu  sync.Mutex
		mirror    *radiobcast.Session
		handle    *store.Store // the replay's own handle on the populated store
		recompute = map[key]time.Duration{}
		pass      int
	)
	return runTraced(e, tracedWorkload{
		name:  "store-restart",
		conns: clients,
		server: func(tr *tracer) (*inproc, func() map[string]float64, error) {
			pass++
			dir := filepath.Join(e.out, fmt.Sprintf("traced-store-%d-%d", os.Getpid(), pass))
			_ = os.RemoveAll(dir)
			if out, err := command(e, "labeler", "-store", dir, "-populate", s.populateSpec()).CombinedOutput(); err != nil {
				return nil, nil, fmt.Errorf("labeler -populate: %v\n%s", err, out)
			}
			if err := s.readStore(dir); err != nil {
				return nil, nil, err
			}
			if tr != nil {
				if err := replayPopulate(e, tr, s, recompute); err != nil {
					return nil, nil, err
				}
				sp := tr.start(tr.newTrace(false), 0, "store.open", "")
				var err error
				handle, err = store.Open(dir, store.Options{})
				sp.end()
				if err != nil {
					return nil, nil, err
				}
			}
			p, err := startInproc(httpd.Config{Session: radiobcast.NewSession(radiobcast.WithStore(dir)), RatePerSec: -1}, tr, clients)
			if err != nil {
				return nil, nil, err
			}
			if tr == nil {
				return p, noExtra, nil
			}
			mirror = radiobcast.NewSession(radiobcast.WithStore(dir))
			return p, func() map[string]float64 {
				return map[string]float64{
					"store_corrupt":     float64(handle.Corrupt()),
					"store_quarantined": float64(handle.Quarantined()),
				}
			}, mirror.Err()
		},
		op: func(p *inproc, tr *tracer, i int) (int, error) {
			k := s.at(i)
			body := s.bodies[k]
			s.mu.Lock()
			want := s.stored[k]
			s.mu.Unlock()
			var data []byte
			var err error
			var op *active
			if tr == nil {
				data, _, err = post(p.hc, p.base+"/v1/label", body, nil)
			} else {
				op = tr.start(tr.newTrace(true), 0, "op", "")
				defer op.end()
				data, err = roundTripSpan(tr, op, p, "/v1/label", body)
			}
			if err != nil {
				return 1, err
			}
			if !bytes.Equal(data, want) {
				return 1, fmt.Errorf("%v: served bytes differ from the populate bytes", k)
			}
			if tr == nil {
				return 1, nil
			}
			replayMu.Lock()
			defer replayMu.Unlock()
			return 1, replayLabelRequest(tr, op, s, mirror, handle, recompute[k], k, body, data)
		},
		check: func(rep *report) error {
			if err := mirror.Close(context.Background()); err != nil {
				return err
			}
			if err := handle.Close(); err != nil {
				return err
			}
			for p := 1; p <= pass; p++ {
				_ = os.RemoveAll(filepath.Join(e.out, fmt.Sprintf("traced-store-%d-%d", os.Getpid(), p)))
			}
			return s.checkStored(rep)
		},
	})
}

// replayPopulate replays labeler -populate layer by layer into a
// throwaway store: build, label, marshal and put every key. It records each key's
// labeling time, the recompute cost a store hit saves.
func replayPopulate(e *env, tr *tracer, s *restartSet, recompute map[key]time.Duration) error {
	dir := filepath.Join(e.out, fmt.Sprintf("traced-populate-%d", os.Getpid()))
	_ = os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	nets := map[class]*radiobcast.Network{}
	for _, k := range s.keys {
		rp := tr.start(tr.newTrace(false), 0, "populate", "")
		c := class{k.family, k.n}
		net := nets[c]
		if net == nil {
			if net, err = buildNetwork(rp, client.GraphSpec{Family: k.family, N: k.n}); err != nil {
				return err
			}
			freeze(rp, net.Graph)
			nets[c] = net
		}
		var l *radiobcast.Labeling
		recompute[k] = rp.timed("core.label", k.scheme, func() {
			l, err = radiobcast.LabelNetwork(radiobcast.NewNetwork(net.Graph).At(k.source), k.scheme)
		})
		if err != nil {
			return err
		}
		var blob []byte
		rp.timed("codec.marshal", "", func() { blob, err = l.MarshalBinary() })
		if err != nil {
			return err
		}
		tr.count("codec.wire_bytes", float64(len(blob)))
		sk, err := s.storeKey(k)
		if err != nil {
			return err
		}
		rp.timed("store.put", "", func() { err = st.Put(sk, blob) })
		if err != nil {
			return err
		}
		rp.end()
	}
	return nil
}

// replayLabelRequest replays the /v1/label handler's layer calls. A
// mirror-cache hit is timed as session.label_hit; a store hit is replayed
// tier by tier on the benchmark's own store handle (get, unmarshal, the
// fingerprint check) and compared with the key's recompute cost.
func replayLabelRequest(tr *tracer, op *active, s *restartSet, mirror *radiobcast.Session, handle *store.Store, recompute time.Duration, k key, body, served []byte) error {
	rp := op.child("replay", "")
	defer rp.end()
	var req client.LabelRequest
	var err error
	rp.timed("httpd.decode", "", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return err
	}
	net, err := buildNetwork(rp, req.Graph)
	if err != nil {
		return err
	}
	net.At(req.Source).Coordinated(req.Coordinator)
	freeze(rp, net.Graph)
	l, fromStore, err := mirrorLabel(rp, mirror, net, req.Scheme)
	if err != nil {
		return err
	}
	if fromStore {
		sk, err := s.storeKey(k)
		if err != nil {
			return err
		}
		var blob []byte
		var ok bool
		tier := rp.timed("store.get", "", func() { blob, ok = handle.Get(sk) })
		if !ok {
			return fmt.Errorf("%v: not in the store", k)
		}
		dl := &radiobcast.Labeling{}
		tier += rp.timed("codec.unmarshal", "", func() { err = dl.UnmarshalBinary(blob) })
		if err != nil {
			return err
		}
		tier += rp.timed("store.check", "", func() {
			dl.Graph.Freeze()
			if dl.Graph.Fingerprint() != sk.Fingerprint {
				err = fmt.Errorf("%v: stored graph has another fingerprint", k)
			}
		})
		if err != nil {
			return err
		}
		if recompute > 0 {
			tr.count("store.hit_over_recompute", float64(tier)/float64(recompute))
		}
	}
	var blob []byte
	rp.timed("codec.marshal", "", func() { blob, err = l.MarshalBinary() })
	if err != nil {
		return err
	}
	if !bytes.Equal(blob, served) {
		return fmt.Errorf("%v: replayed bytes differ from the served bytes", k)
	}
	return nil
}

func tracedSweepGrid(e *env) (*report, error) {
	r := &refs{}
	var cleanCells []client.SweepCellResult
	var mirror *radiobcast.Session
	return runTraced(e, tracedWorkload{
		name:  "sweep-grid",
		conns: 1,
		server: func(tr *tracer) (*inproc, func() map[string]float64, error) {
			mirror = radiobcast.NewSession()
			p, err := startInproc(httpd.Config{Session: radiobcast.NewSession(), RatePerSec: -1, SweepWorkers: 2}, tr, 1)
			return p, noExtra, err
		},
		op: func(p *inproc, tr *tracer, i int) (int, error) {
			req := sweepRequest(e.seed, i)
			var op, rt *active
			if tr != nil {
				op = tr.start(tr.newTrace(true), 0, "op", "")
				defer op.end()
				rt = op.child("client.roundtrip", "")
			}
			st, err := postSweep(p.hc, p.base, req, rt)
			if err != nil {
				return sweepCells, err
			}
			for _, c := range st.cells {
				if clean(&c) {
					cleanCells = append(cleanCells, c)
				}
			}
			if tr == nil {
				return sweepCells, nil
			}
			d := rt.end()
			h, err := tr.handlerTime(op.s.Trace)
			if err != nil {
				return sweepCells, err
			}
			tr.count("httpd.transport_ms", ms(d-h))
			tr.count("httpd.request_bytes", float64(len(st.body)))
			tr.count("httpd.response_bytes", float64(st.respBytes))
			tr.count("sweep.run_ms", ms(st.done-st.first))
			return sweepCells, replaySweep(tr, op, mirror, st)
		},
		check: func(rep *report) error { return checkCleanCells(r, cleanCells, rep) },
	})
}

// replaySweep replays a sweep's three phases: build and freeze each
// graph, label each (graph, scheme, source) through the mirror Session,
// then run every cell in grid order with the cell's fault options.
func replaySweep(tr *tracer, op *active, mirror *radiobcast.Session, st *sweepStream) error {
	rp := op.child("replay", "")
	defer rp.end()
	const mu = "µ" // the sweep's default message
	var req client.SweepRequest
	var err error
	rp.timed("httpd.decode", "", func() { err = decodeStrict(st.body, &req) })
	if err != nil {
		return err
	}
	nets := map[class]*radiobcast.Network{}
	build := rp.child("sweep.build", "")
	for _, f := range req.Families {
		for _, n := range req.Sizes {
			net, err := buildNetwork(build, client.GraphSpec{Family: f, N: n})
			if err != nil {
				return err
			}
			freeze(build, net.Graph)
			nets[class{f, n}] = net
		}
	}
	build.end()
	labels := map[key]*radiobcast.Labeling{}
	lb := rp.child("sweep.label", "")
	for _, f := range req.Families {
		for _, n := range req.Sizes {
			for _, sch := range req.Schemes {
				for _, src := range req.Sources {
					l, _, err := mirrorLabel(lb, mirror, nets[class{f, n}], sch, radiobcast.WithSource(src), radiobcast.WithMessage(mu))
					if err != nil {
						return err
					}
					labels[key{f, n, sch, src}] = l
				}
			}
		}
	}
	lb.end()
	byIndex := make(map[int]*client.SweepCellResult, len(st.cells))
	for i := range st.cells {
		byIndex[st.cells[i].Index] = &st.cells[i]
	}
	run := rp.child("sweep.run", "")
	var busy time.Duration
	idx := 0
	for _, f := range req.Families {
		for _, n := range req.Sizes {
			for _, sch := range req.Schemes {
				for _, src := range req.Sources {
					l := labels[key{f, n, sch, src}]
					axis := make([][]radiobcast.Option, 0, len(req.FaultRates)+len(req.Faults))
					for _, rate := range req.FaultRates {
						var o []radiobcast.Option
						if rate > 0 {
							o = append(o, radiobcast.FaultRate(rate, req.Seed))
						}
						axis = append(axis, o)
					}
					for _, fs := range req.Faults {
						fs.Seed = req.Seed
						axis = append(axis, []radiobcast.Option{radiobcast.WithFaultSpec(fs)})
					}
					for _, faults := range axis {
						name := "radio.run"
						if len(faults) > 0 {
							name = "faults.run"
						}
						opts := append([]radiobcast.Option{radiobcast.WithSource(src), radiobcast.WithMessage(mu)}, faults...)
						out, d, err := replayRun(tr, run, name, l, opts...)
						if err != nil {
							return err
						}
						busy += d
						c := byIndex[idx]
						if c == nil || c.Family != f || c.Size != n || c.Scheme != sch || c.Source != src {
							return fmt.Errorf("cell %d does not match the replayed grid order", idx)
						}
						if c.CompletionRound != out.CompletionRound {
							return fmt.Errorf("cell %d: replay completion round %d, server %d", idx, out.CompletionRound, c.CompletionRound)
						}
						idx++
					}
				}
			}
		}
	}
	run.end()
	if wall := st.done - st.first; wall > 0 {
		tr.count("sweep.worker_busy_ratio", float64(busy)/(float64(wall)*2))
	}
	rp.timed("httpd.encode", "", func() {
		enc := json.NewEncoder(io.Discard)
		for i := range st.cells {
			if err = enc.Encode(client.SweepLine{Cell: &st.cells[i]}); err != nil {
				return
			}
		}
	})
	return err
}
