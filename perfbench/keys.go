package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"

	"radiobcast"
)

// key is one labeling the workloads ask for: a family member, a scheme
// and a designated source.
type key struct {
	family string
	n      int
	scheme string
	source int
}

func (k key) String() string {
	return fmt.Sprintf("%s/%d/%s/src=%d", k.family, k.n, k.scheme, k.source)
}

// class is a (family, size) pair: the unit whose graph every key of the
// class shares.
type class struct {
	family string
	n      int
}

// rankedKeys lays out a popularity order over classes × schemes ×
// sources. Rank r belongs to class r mod len(classes) and to scheme
// (r / len(classes)) mod len(schemes), so every seed gives each class and
// scheme the same share of the traffic (classes are listed smallest
// graphs first: small topologies are the popular ones). The seed chooses
// which source each rank names.
func rankedKeys(rng *rand.Rand, classes []class, schemes []string, sources []int) []key {
	nc, ns := len(classes), len(schemes)
	perms := make([][]int, nc*ns)
	for i := range perms {
		perms[i] = rng.Perm(len(sources))
	}
	keys := make([]key, 0, nc*ns*len(sources))
	for r := 0; r < cap(keys); r++ {
		c, j := r%nc, r/nc
		s := j % ns
		keys = append(keys, key{classes[c].family, classes[c].n, schemes[s], sources[perms[c*ns+s][j/ns]]})
	}
	return keys
}

// classesOf lists families × sizes, sizes outermost.
func classesOf(families []string, sizes []int) []class {
	var cs []class
	for _, n := range sizes {
		for _, f := range families {
			cs = append(cs, class{f, n})
		}
	}
	return cs
}

// quotaStream is a seeded stream of popularity ranks with a zipf mix:
// every block of requests holds rank r exactly as often as its share
// 1/(r+1)^s gives (largest-remainder rounding), and a fixed share of
// each rank's requests is flagged. The seed shuffles each block. So every
// seed and every block send the same traffic mix, and runs differ in
// order and in which keys the ranks name, not in how many expensive
// requests they happen to draw.
type quotaStream struct {
	block []streamReq // one block in rank order

	mu   sync.Mutex
	rng  *rand.Rand
	reqs []streamReq
}

type streamReq struct {
	rank    int
	flagged bool
}

func newQuotaStream(rng *rand.Rand, ranks, block int, s, flagShare float64) *quotaStream {
	w := make([]float64, ranks)
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
	}
	counts := quotas(w, block)
	cw := make([]float64, ranks)
	for r, c := range counts {
		cw[r] = float64(c)
	}
	flags := quotas(cw, int(math.Round(flagShare*float64(block))))
	q := &quotaStream{rng: rng}
	for r, c := range counts {
		for j := range c {
			q.block = append(q.block, streamReq{r, j < flags[r]})
		}
	}
	return q
}

// at returns request i; blocks are generated in order, so the stream
// does not depend on which caller asks first.
func (q *quotaStream) at(i int) streamReq {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.reqs) <= i {
		b := slices.Clone(q.block)
		q.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		q.reqs = append(q.reqs, b...)
	}
	return q.reqs[i]
}

// quotas splits total into whole parts proportional to w, by the
// largest-remainder method (ties go to the lower index).
func quotas(w []float64, total int) []int {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	out := make([]int, len(w))
	frac := make([]float64, len(w))
	order := make([]int, len(w))
	left := total
	for i, x := range w {
		exact := float64(total) * x / sum
		out[i] = int(exact)
		frac[i] = exact - float64(out[i])
		left -= out[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for _, i := range order[:left] {
		out[i]++
	}
	return out
}

// graphs builds each family member once per process; the harness uses
// them for request bodies and references.
type graphs struct {
	mu sync.Mutex
	m  map[class]*radiobcast.Graph
}

func (g *graphs) get(c class) (*radiobcast.Graph, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if gr, ok := g.m[c]; ok {
		return gr, nil
	}
	net, err := radiobcast.Family(c.family, c.n)
	if err != nil {
		return nil, err
	}
	net.Graph.Freeze()
	net.Graph.Fingerprint()
	if g.m == nil {
		g.m = map[class]*radiobcast.Graph{}
	}
	g.m[c] = net.Graph
	return net.Graph, nil
}

// refs memoizes in-process reference results, computed through the
// facade the daemon serves.
type refs struct {
	g          graphs
	mu         sync.Mutex
	labelings  map[key]*radiobcast.Labeling
	completion map[key]int
}

// label returns the reference labeling of k (LabelNetwork).
func (r *refs) label(k key) (*radiobcast.Labeling, error) {
	r.mu.Lock()
	l, ok := r.labelings[k]
	r.mu.Unlock()
	if ok {
		return l, nil
	}
	g, err := r.g.get(class{k.family, k.n})
	if err != nil {
		return nil, err
	}
	l, err = radiobcast.LabelNetwork(radiobcast.NewNetwork(g).At(k.source), k.scheme)
	if err != nil {
		return nil, fmt.Errorf("reference label %v: %w", k, err)
	}
	r.mu.Lock()
	if r.labelings == nil {
		r.labelings = map[key]*radiobcast.Labeling{}
	}
	r.labelings[k] = l
	r.mu.Unlock()
	return l, nil
}

// blob returns the wire bytes of k's reference labeling.
func (r *refs) blob(k key) ([]byte, error) {
	l, err := r.label(k)
	if err != nil {
		return nil, err
	}
	return l.MarshalBinary()
}

// completionRound runs k's reference labeling from k's source, checks
// it with Verify, and returns its completion round.
func (r *refs) completionRound(k key) (int, error) {
	r.mu.Lock()
	c, ok := r.completion[k]
	r.mu.Unlock()
	if ok {
		return c, nil
	}
	l, err := r.label(k)
	if err != nil {
		return 0, err
	}
	out, err := radiobcast.RunLabeled(l, radiobcast.WithSource(k.source))
	if err != nil {
		return 0, fmt.Errorf("reference run %v: %w", k, err)
	}
	if err := radiobcast.Verify(out); err != nil {
		return 0, fmt.Errorf("reference verify %v: %w", k, err)
	}
	r.mu.Lock()
	if r.completion == nil {
		r.completion = map[key]int{}
	}
	r.completion[k] = out.CompletionRound
	r.mu.Unlock()
	return out.CompletionRound, nil
}
