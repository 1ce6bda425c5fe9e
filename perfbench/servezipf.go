package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"time"

	"radiobcast/client"
)

// serve-zipf: two closed-loop callers send /v1/run requests whose keys
// follow a zipf popularity over families × sizes × {b, back} × 8
// sources. About one request in five sends the graph as a shuffled
// explicit edge list instead of a family name. The daemon keeps its
// default 128-entry labeling cache, which holds the head of the
// distribution and misses the tail.
var (
	zipfFamilies   = []string{"path", "grid", "gnp-sparse", "btree", "torus", "caterpillar"}
	zipfSizes      = []int{64, 256, 1024, 4096}
	zipfSchemes    = []string{"b", "back"}
	zipfSources    = []int{0, 7, 15, 23, 31, 39, 47, 55}
	serveZipfFlags = []string{"-rate", "-1"}
)

const (
	zipfExponent = 1.1
	edgeShare    = 0.2
	// warmKeys is the warm-up prefix: one request for each of the most
	// popular keys, as many as the daemon's default labeling cache holds.
	warmKeys = 128
	// zipfCycle is the length of one cycle's stream, and the block over
	// which the traffic mix is exact.
	zipfCycle = 600
)

// zipfReq is one request of the stream.
type zipfReq struct {
	k     key
	edges bool // send the graph as an explicit edge list
}

// zipfStream is the seeded request stream, with its request bodies
// encoded before any timing starts.
type zipfStream struct {
	seed   uint64
	keys   []key // by popularity rank
	q      *quotaStream
	graphs *graphs

	mu     sync.Mutex
	bodies map[zipfReq][]byte
}

// newZipfStream lays out the stream in blocks of block requests (one
// cycle's stream) and encodes every body the stream and the warm-up
// prefix send.
func newZipfStream(seed uint64, g *graphs, block int) (*zipfStream, error) {
	keys := rankedKeys(rand.New(rand.NewPCG(seed, 1)), classesOf(zipfFamilies, zipfSizes), zipfSchemes, zipfSources)
	s := &zipfStream{
		seed: seed, keys: keys, graphs: g,
		q:      newQuotaStream(rand.New(rand.NewPCG(seed, 2)), len(keys), block, zipfExponent, edgeShare),
		bodies: map[zipfReq][]byte{},
	}
	for i := range warmKeys {
		if _, err := s.body(zipfReq{k: keys[i]}); err != nil {
			return nil, err
		}
	}
	for _, r := range s.q.block {
		if _, err := s.body(zipfReq{k: keys[r.rank], edges: r.flagged}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// at returns request i of the stream.
func (s *zipfStream) at(i int) zipfReq {
	r := s.q.at(i)
	return zipfReq{k: s.keys[r.rank], edges: r.flagged}
}

// body returns the JSON request body of rq.
func (s *zipfStream) body(rq zipfReq) ([]byte, error) {
	s.mu.Lock()
	b, ok := s.bodies[rq]
	s.mu.Unlock()
	if ok {
		return b, nil
	}
	req := client.RunRequest{Scheme: rq.k.scheme, Source: rq.k.source}
	if rq.edges {
		edges, nodes, err := s.shuffledEdges(class{rq.k.family, rq.k.n})
		if err != nil {
			return nil, err
		}
		req.Graph = client.GraphSpec{Edges: edges, Nodes: nodes}
	} else {
		req.Graph = client.GraphSpec{Family: rq.k.family, N: rq.k.n}
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.bodies[rq] = b
	s.mu.Unlock()
	return b, nil
}

// shuffledEdges lists c's edges in a seeded random order with randomly
// oriented endpoints: the same graph as the family member, spelled
// differently.
func (s *zipfStream) shuffledEdges(c class) ([][2]int, int, error) {
	g, err := s.graphs.get(c)
	if err != nil {
		return nil, 0, err
	}
	var edges [][2]int
	for u := range g.N() {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", c.family, c.n)
	rng := rand.New(rand.NewPCG(s.seed, h.Sum64()))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := range edges {
		if rng.IntN(2) == 0 {
			edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
		}
	}
	return edges, g.N(), nil
}

// postRun sends one /v1/run body and decodes the answer.
func postRun(hc *http.Client, base string, body []byte) (*client.RunResponse, time.Duration, error) {
	data, first, err := post(hc, base+"/v1/run", body, nil)
	if err != nil {
		return nil, 0, err
	}
	rr, err := decodeRun(data)
	return rr, first, err
}

// decodeRun decodes a /v1/run answer, which must report the run verified.
func decodeRun(data []byte) (*client.RunResponse, error) {
	var rr client.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, err
	}
	if !rr.Verified {
		return nil, fmt.Errorf("not verified: %s", rr.VerifyError)
	}
	return &rr, nil
}

// runOutcomes records each request's completion round for the reference
// check after the timed phases.
type runOutcomes struct {
	mu sync.Mutex
	m  map[int]runOutcome
}

type runOutcome struct {
	k          key
	completion int
}

func (o *runOutcomes) add(i int, k key, completion int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.m == nil {
		o.m = map[int]runOutcome{}
	}
	o.m[i] = runOutcome{k, completion}
}

// check compares every recorded completion round with the in-process
// reference of its key.
func (o *runOutcomes) check(r *refs, rep *report) error {
	for _, i := range slices.Sorted(maps.Keys(o.m)) {
		got := o.m[i]
		want, err := r.completionRound(got.k)
		if err != nil {
			return err
		}
		if got.completion != want {
			rep.fail("request %d (%v): completion round %d, reference %d", i, got.k, got.completion, want)
		}
	}
	return nil
}

func runServeZipf(e *env) (*report, error) {
	rep := newReport()
	r := &refs{}
	requests := e.cycle(zipfCycle)
	s, err := newZipfStream(e.seed, &r.g, requests)
	if err != nil {
		return nil, err
	}
	var outcomes runOutcomes
	warm := func(base string, hc *http.Client) error {
		var firstErr error
		samples, _ := closedLoop(clients, warmKeys, func(i int) (time.Duration, error) {
			body, err := s.body(zipfReq{k: s.keys[i]})
			if err != nil {
				return 0, err
			}
			_, _, err = postRun(hc, base, body)
			return 0, err
		})
		for _, sm := range samples {
			if sm.err != nil && firstErr == nil {
				firstErr = sm.err
			}
		}
		return firstErr
	}
	_, err = runCycles(e, cycleSpec{
		flags:    func(string) []string { return serveZipfFlags },
		warm:     warm,
		conns:    clients,
		requests: requests,
		send: func(base string, hc *http.Client, i int) (time.Duration, int, error) {
			rq := s.at(i)
			body, err := s.body(rq)
			if err != nil {
				return 0, 1, err
			}
			rr, first, err := postRun(hc, base, body)
			if err != nil {
				return 0, 1, err
			}
			outcomes.add(i, rq.k, rr.CompletionRound)
			return first, 1, nil
		},
	}, rep)
	if err != nil {
		return nil, err
	}
	return rep, outcomes.check(r, rep)
}
