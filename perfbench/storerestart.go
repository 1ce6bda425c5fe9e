package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"radiobcast/client"
	"radiobcast/internal/store"
)

// store-restart: the labeler populates an empty store with a seeded key
// set, then a cold radiobcastd -store serves a zipf stream of /v1/label
// over the stored keys. gnp-sparse is left out so that the store and
// codec tiers, not its O(n²) generator, dominate.
var (
	restartFamilies   = []string{"path", "grid", "torus", "btree", "caterpillar", "hypercube"}
	restartSizes      = []int{64, 256, 1024, 4096}
	restartSchemes    = []string{"b", "back", "barb"}
	storeRestartFlags = []string{"-rate", "-1"}
)

// restartCycle is the length of the stream a restarted daemon serves.
const restartCycle = 2000

// restartSources draws the seeded sources every stored graph is labeled
// for; they lie below 64, the smallest graph size.
func restartSources(rng *rand.Rand) []int {
	srcs := rng.Perm(64)[:4]
	slices.Sort(srcs)
	return srcs
}

// restartSet is the store-restart key set and its request stream.
type restartSet struct {
	sources []int
	keys    []key // by popularity rank
	q       *quotaStream
	bodies  map[key][]byte
	refs    *refs

	mu sync.Mutex
	// stored holds each key's blob as the labeler wrote it.
	stored map[key][]byte
}

// newRestartSet lays out the key set and a stream in blocks of block
// requests (one cycle's stream).
func newRestartSet(seed uint64, block int) *restartSet {
	rng := rand.New(rand.NewPCG(seed, 1))
	s := &restartSet{sources: restartSources(rng), bodies: map[key][]byte{}, refs: &refs{}}
	s.keys = rankedKeys(rng, classesOf(restartFamilies, restartSizes), restartSchemes, s.sources)
	s.q = newQuotaStream(rand.New(rand.NewPCG(seed, 2)), len(s.keys), block, zipfExponent, 0)
	for _, k := range s.keys {
		s.bodies[k] = []byte(mustJSON(client.LabelRequest{
			Graph: client.GraphSpec{Family: k.family, N: k.n}, Scheme: k.scheme, Source: k.source,
		}))
	}
	return s
}

func (s *restartSet) at(i int) key { return s.keys[s.q.at(i).rank] }

// populateSpec is the labeler -populate spec of the key set.
func (s *restartSet) populateSpec() string {
	return fmt.Sprintf("families=%s;sizes=%s;schemes=%s;sources=%s", strings.Join(restartFamilies, ","),
		joinInts(restartSizes), strings.Join(restartSchemes, ","), joinInts(s.sources))
}

// storeKey is the store key the Session files k under.
func (s *restartSet) storeKey(k key) (store.Key, error) {
	g, err := s.refs.g.get(class{k.family, k.n})
	if err != nil {
		return store.Key{}, err
	}
	return store.Key{Fingerprint: g.Fingerprint(), N: g.N(), M: g.M(), Scheme: k.scheme, Source: k.source}, nil
}

// readStore records the blob the labeler stored for every key; a later
// cycle's populate must write the same bytes.
func (s *restartSet) readStore(dir string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.stored == nil
	if first {
		s.stored = map[key][]byte{}
	}
	for _, k := range s.keys {
		sk, err := s.storeKey(k)
		if err != nil {
			return err
		}
		blob, ok := st.Get(sk)
		if !ok {
			return fmt.Errorf("populated store has no entry for %v", k)
		}
		if first {
			s.stored[k] = blob
		} else if !bytes.Equal(blob, s.stored[k]) {
			return fmt.Errorf("populate wrote different bytes for %v than in the first cycle", k)
		}
	}
	return nil
}

// checkStored compares every stored blob with the in-process reference
// (LabelNetwork + MarshalBinary).
func (s *restartSet) checkStored(rep *report) error {
	for _, k := range s.keys {
		want, err := s.refs.blob(k)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.stored[k], want) {
			rep.fail("stored blob of %v differs from the reference labeling", k)
		}
	}
	return nil
}

func runStoreRestart(e *env) (*report, error) {
	rep := newReport()
	requests := e.cycle(restartCycle)
	s := newRestartSet(e.seed, requests)
	counters, err := runCycles(e, cycleSpec{
		populate:  s.populateSpec(),
		populated: s.readStore,
		flags: func(dir string) []string {
			return append([]string{"-store", dir}, storeRestartFlags...)
		},
		conns:    clients,
		requests: requests,
		send: func(base string, hc *http.Client, i int) (time.Duration, int, error) {
			k := s.at(i)
			data, first, err := post(hc, base+"/v1/label", s.bodies[k], nil)
			if err != nil {
				return 0, 1, err
			}
			s.mu.Lock()
			want := s.stored[k]
			s.mu.Unlock()
			if !bytes.Equal(data, want) {
				return 0, 1, fmt.Errorf("%v: served %d bytes that differ from the %d populate wrote", k, len(data), len(want))
			}
			return first, 1, nil
		},
	}, rep)
	if err != nil {
		return nil, err
	}
	if counters["session_store_hits_total"] == 0 {
		rep.fail("the restarted daemon served nothing from the store")
	}
	rep.notef("sources: %v; keys: %d", s.sources, len(s.keys))
	return rep, s.checkStored(rep)
}
