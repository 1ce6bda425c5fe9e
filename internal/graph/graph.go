// Package graph implements the network substrate of the paper: simple
// undirected connected graphs with nodes identified by integers 0..n-1.
// It provides construction, traversal (BFS distances, eccentricity, radius,
// diameter), the graph square and distance-2 colorings used by the
// O(log Δ)-bit baseline, a library of generators covering the graph
// families exercised in the experiments, and simple text I/O.
package graph

import (
	"fmt"
	"sort"
	"sync"

	"radiobcast/internal/nodeset"
)

// Graph is a simple undirected graph over nodes 0..n-1, stored as sorted
// adjacency lists. Construct with New and AddEdge; adjacency lists are kept
// sorted and duplicate-free so that all downstream algorithms iterate
// neighbours in a deterministic order.
type Graph struct {
	n    int
	adj  [][]int
	m    int
	sets []*nodeset.Set // lazily built adjacency bitsets for O(1) HasEdge
	csr  *CSR           // lazily built frozen form (see Freeze)

	fp      uint64 // cached structural hash (see Fingerprint)
	fpValid bool

	// adjOnce guards the lazy materialization of adj for FromCSR graphs
	// (see ensureAdj), which concurrent readers of a shared graph may
	// trigger at the same time.
	adjOnce sync.Once
}

// New returns an edgeless graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected;
// re-adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.ensureAdj()
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if g.HasEdge(u, v) {
		return
	}
	g.insert(u, v)
	g.insert(v, u)
	g.m++
	g.sets = nil // invalidate caches
	g.csr = nil
	g.fpValid = false
}

// RemoveEdge deletes the undirected edge {u, v}. Removing an absent edge
// is a no-op, mirroring AddEdge's tolerance of re-adds.
func (g *Graph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.ensureAdj()
	if u == v || !g.HasEdge(u, v) {
		return
	}
	g.remove(u, v)
	g.remove(v, u)
	g.m--
	g.sets = nil // invalidate caches
	g.csr = nil
	g.fpValid = false
}

func (g *Graph) remove(u, v int) {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	copy(a[i:], a[i+1:])
	g.adj[u] = a[:len(a)-1]
}

func (g *Graph) insert(u, v int) {
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	g.adj[u] = a
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	g.ensureAdj()
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Neighbors returns v's adjacency list in ascending order. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	g.ensureAdj()
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	g.ensureAdj()
	return len(g.adj[v])
}

// MaxDegree returns Δ(G), or 0 for an edgeless graph.
func (g *Graph) MaxDegree() int {
	g.ensureAdj()
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Edges returns all edges as ordered pairs (u < v), sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	g.ensureAdj()
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	g.ensureAdj()
	c := New(g.n)
	c.m = g.m
	for v := 0; v < g.n; v++ {
		c.adj[v] = append([]int(nil), g.adj[v]...)
	}
	return c
}

// NeighborSet returns v's neighbourhood as a nodeset.Set. Sets are cached;
// they are owned by the graph and must not be modified.
func (g *Graph) NeighborSet(v int) *nodeset.Set {
	g.check(v)
	g.ensureAdj()
	if g.sets == nil {
		g.sets = make([]*nodeset.Set, g.n)
	}
	if g.sets[v] == nil {
		s := nodeset.New(g.n)
		for _, w := range g.adj[v] {
			s.Add(w)
		}
		g.sets[v] = s
	}
	return g.sets[v]
}

// Neighborhood returns Γ(X): the set of nodes adjacent to at least one
// member of X (the paper's Γ; note Γ(X) may intersect X).
func (g *Graph) Neighborhood(x *nodeset.Set) *nodeset.Set {
	csr := g.Freeze()
	out := nodeset.New(g.n)
	x.ForEach(func(v int) {
		for _, w := range csr.Neighbors(v) {
			out.Add(int(w))
		}
	})
	return out
}

// Validate checks structural invariants (sorted, symmetric, loop-free
// adjacency). It returns nil for graphs built through AddEdge and exists to
// guard graphs constructed by external decoders.
func (g *Graph) Validate() error {
	g.ensureAdj()
	count := 0
	for u := 0; u < g.n; u++ {
		a := g.adj[u]
		for i, v := range a {
			if v < 0 || v >= g.n {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if i > 0 && a[i-1] >= v {
				return fmt.Errorf("graph: adjacency of %d not sorted/unique", u)
			}
			if !g.HasEdge(v, u) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", u, v)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency size %d", g.m, count)
	}
	return nil
}

// String renders a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.n, g.m)
}
