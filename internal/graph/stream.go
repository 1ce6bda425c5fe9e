package graph

import (
	"math"
	"math/rand"
	"sort"
)

// This file is the million-node construction path: generators that emit
// the frozen CSR directly, skipping the [][]int adjacency intermediate
// (and its n+1 allocations), plus FromCSR to wrap the result as a Graph.
// The adjacency lists materialize lazily only if a caller actually asks
// for them; the radio engine runs off the CSR alone.

// streamGNPThreshold is the size at which GNPConnected switches from the
// quadratic pair loop to the streaming geometric-skip sampler. The two
// algorithms draw different random sequences, so the threshold is far
// above every size the golden tests pin.
const streamGNPThreshold = 50000

// FromCSR wraps a frozen CSR as a Graph without materializing adjacency
// lists: the CSR itself becomes the Freeze cache, so engine runs touch
// only the two flat arrays. Callers that later need per-node []int
// adjacency (mutation, Validate, NeighborSet) trigger a lazy one-time
// materialization. The CSR must be structurally valid (sorted, symmetric,
// loop-free adjacency — what a generator emits); FromCSR takes ownership.
func FromCSR(c *CSR) *Graph {
	return &Graph{n: c.N(), m: c.M(), csr: c}
}

// ensureAdj materializes the [][]int adjacency of a FromCSR graph on
// first use. Graphs built through New always have adj set, so for them
// the once only records that. The sync.Once makes the materialization
// safe when a frozen graph is shared read-only across goroutines and
// several of them reach for the adjacency at once (Edges, Clone).
func (g *Graph) ensureAdj() {
	g.adjOnce.Do(g.materializeAdj)
}

func (g *Graph) materializeAdj() {
	if g.adj != nil {
		return
	}
	if g.csr == nil {
		g.adj = make([][]int, g.n)
		return
	}
	backing := make([]int, len(g.csr.Targets))
	for i, t := range g.csr.Targets {
		backing[i] = int(t)
	}
	g.adj = rows(backing, g.csr.Offsets)
}

// StreamGNPConnected is the streaming form of GNPConnected for large n:
// a random attachment tree guarantees connectivity and the G(n,p) pairs
// are drawn by geometric skipping in O(m) instead of testing all n(n-1)/2
// pairs, with the edge set assembled directly into a CSR. Deterministic
// in seed; the random sequence differs from GNPConnected's, so results
// agree in distribution but not bit-for-bit.
func StreamGNPConnected(n int, p float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	// Edge keys i*n+j (i < j): the tree plus the sampled pairs, deduped.
	keys := make([]int64, 0, n-1+int(float64(n)*(float64(n-1)/2)*p)+16)
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		keys = append(keys, int64(j)*int64(n)+int64(i))
	}
	if p > 0 && p < 1 && n > 1 {
		total := int64(n) * int64(n-1) / 2
		logq := math.Log1p(-p)
		k := int64(-1)
		// rowBase is the number of pairs preceding row i; advancing the
		// row cursor is amortized O(n) over the whole walk.
		row, rowBase := int64(0), int64(0)
		for {
			u := r.Float64()
			k += 1 + int64(math.Log1p(-u)/logq)
			if k >= total || k < 0 {
				break
			}
			for k >= rowBase+int64(n)-1-row {
				rowBase += int64(n) - 1 - row
				row++
			}
			i, j := row, row+1+(k-rowBase)
			keys = append(keys, i*int64(n)+j)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	edges := keys[:0]
	for idx, key := range keys {
		if idx == 0 || key != edges[len(edges)-1] {
			edges = append(edges, key)
		}
	}
	return FromCSR(edgesToCSR(n, edges))
}

// edgesToCSR assembles sorted, deduplicated i*n+j edge keys (i < j) into
// a CSR (see assemble).
func edgesToCSR(n int, edges []int64) *CSR {
	offsets, targets := assemble[int32](n, edges)
	return &CSR{Offsets: offsets, Targets: targets}
}

// fromEdgeKeys builds a Graph from sorted, deduplicated i*n+j edge keys
// (i < j) in one bulk pass, with its adjacency lists cut from a single
// backing array, instead of growing them edge by edge through AddEdge.
func fromEdgeKeys(n int, edges []int64) *Graph {
	offsets, backing := assemble[int](n, edges)
	return &Graph{n: n, m: len(edges), adj: rows(backing, offsets)}
}

// assemble lays out sorted, deduplicated i*n+j edge keys (i < j) as CSR
// offsets plus concatenated per-node targets, in two counting passes.
// Per-node target lists come out ascending: for node v, the sub-v
// neighbours arrive while scanning rows 0..v-1 in order, then v's own row
// appends the super-v neighbours in order.
func assemble[T int | int32](n int, edges []int64) ([]int32, []T) {
	offsets := make([]int32, n+1)
	for _, key := range edges {
		i, j := key/int64(n), key%int64(n)
		offsets[i+1]++
		offsets[j+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]T, 2*len(edges))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, key := range edges {
		i, j := key/int64(n), key%int64(n)
		targets[cursor[i]] = T(j)
		cursor[i]++
		targets[cursor[j]] = T(i)
		cursor[j]++
	}
	return offsets, targets
}

// rows slices a concatenated adjacency array into per-node lists.
// Full-slice expressions cap each node's slice at its own row, so a
// later AddEdge append reallocates instead of clobbering the next node's
// neighbours in the shared backing array.
func rows(backing []int, offsets []int32) [][]int {
	adj := make([][]int, len(offsets)-1)
	for v := range adj {
		adj[v] = backing[offsets[v]:offsets[v+1]:offsets[v+1]]
	}
	return adj
}
