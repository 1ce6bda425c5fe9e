// Tests for the streaming CSR-direct construction path: generator
// validity, seed determinism, the GNPConnected dispatch threshold, and
// the lazy adjacency materialization of FromCSR graphs.
package graph

import (
	"reflect"
	"sync"
	"testing"
)

// TestStreamGNPValidAndConnected: the streaming generator must emit a
// structurally valid, connected, simple graph — the attachment tree
// guarantees connectivity regardless of p, and the dedup pass must
// remove any pair the sampler drew on top of a tree edge.
func TestStreamGNPValidAndConnected(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		seed int64
	}{
		{2, 0, 1}, {50, 0, 3}, {200, 0.05, 7}, {500, 0.01, 1}, {300, 0.9, 2},
	} {
		g := StreamGNPConnected(tc.n, tc.p, tc.seed)
		if g.N() != tc.n {
			t.Fatalf("n=%d p=%g: N() = %d", tc.n, tc.p, g.N())
		}
		// Validate walks the lazily materialized adjacency: sortedness,
		// symmetry, no loops, no duplicates, M consistency.
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d p=%g seed=%d: %v", tc.n, tc.p, tc.seed, err)
		}
		if !g.IsConnected() {
			t.Fatalf("n=%d p=%g seed=%d: not connected", tc.n, tc.p, tc.seed)
		}
		if tc.p == 0 && g.M() != tc.n-1 {
			t.Fatalf("p=0 must yield a tree: m = %d on %d nodes", g.M(), tc.n)
		}
	}
}

// TestStreamGNPDeterministic: same (n, p, seed) — same edge set; a
// different seed must move at least one edge on a non-trivial graph.
func TestStreamGNPDeterministic(t *testing.T) {
	a := StreamGNPConnected(400, 0.02, 9)
	b := StreamGNPConnected(400, 0.02, 9)
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("same seed produced different graphs")
	}
	c := StreamGNPConnected(400, 0.02, 10)
	if reflect.DeepEqual(a.Edges(), c.Edges()) {
		t.Fatal("different seeds produced identical graphs")
	}
}

// TestGNPDispatchThreshold pins the GNPConnected routing contract:
// below streamGNPThreshold the quadratic pair loop runs (the golden
// tests depend on its exact random sequence), at and above it the
// streaming sampler takes over — recognizable by its CSR-first Graph,
// which carries a Freeze cache before anyone asked for one.
func TestGNPDispatchThreshold(t *testing.T) {
	small := GNPConnected(100, 0.1, 5)
	if small.csr != nil {
		t.Fatal("small GNPConnected went through the streaming path")
	}
	large := GNPConnected(streamGNPThreshold, 2.0/float64(streamGNPThreshold), 5)
	if large.csr == nil {
		t.Fatal("threshold-sized GNPConnected skipped the streaming path")
	}
	if large.adj != nil {
		t.Fatal("streaming construction materialized adjacency lists eagerly")
	}
	want := StreamGNPConnected(streamGNPThreshold, 2.0/float64(streamGNPThreshold), 5)
	if large.M() != want.M() {
		t.Fatalf("dispatch changed the graph: m=%d direct, m=%d streamed", want.M(), large.M())
	}
}

// TestFromCSRLazyAdjacency: a FromCSR graph answers N/M/Freeze straight
// off the CSR; the first adjacency-needing call materializes per-node
// lists that match the CSR exactly, and mutation keeps working after.
func TestFromCSRLazyAdjacency(t *testing.T) {
	// 0-1-2-3 path as raw edge keys i*n+j.
	const n = 4
	g := FromCSR(edgesToCSR(n, []int64{0*n + 1, 1*n + 2, 2*n + 3}))
	if g.N() != n || g.M() != 3 {
		t.Fatalf("FromCSR reports n=%d m=%d", g.N(), g.M())
	}
	if g.adj != nil {
		t.Fatal("FromCSR materialized adjacency eagerly")
	}
	if g.Freeze() != g.csr {
		t.Fatal("Freeze did not reuse the wrapped CSR")
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Neighbors(1) = %v after lazy materialization", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 3)
	if !g.HasEdge(0, 3) || g.M() != 4 {
		t.Fatal("mutation broken after lazy materialization")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEdgesToCSRAscendingTargets pins the CSR assembly invariant the
// bitset slabs rely on: per-node target lists come out sorted.
func TestEdgesToCSRAscendingTargets(t *testing.T) {
	const n = 6
	// A node with neighbours on both sides: 3-0, 3-1, 3-4, 3-5 plus 0-5.
	c := edgesToCSR(n, []int64{0*n + 3, 0*n + 5, 1*n + 3, 3*n + 4, 3*n + 5})
	for v := 0; v < n; v++ {
		row := c.Targets[c.Offsets[v]:c.Offsets[v+1]]
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				t.Fatalf("node %d targets not strictly ascending: %v", v, row)
			}
		}
	}
	if got := c.Targets[c.Offsets[3]:c.Offsets[4]]; !reflect.DeepEqual(got, []int32{0, 1, 4, 5}) {
		t.Fatalf("node 3 row = %v", got)
	}
}

// TestSharedLazyAdjacencyRace: goroutines sharing one frozen FromCSR
// graph may all trigger the lazy adjacency materialization at once (two
// concurrent reads of a cached labeling's graph both call Edges). Run
// under -race; every reader must also see the complete adjacency.
func TestSharedLazyAdjacencyRace(t *testing.T) {
	const n = streamGNPThreshold + 10000
	g := StreamGNPConnected(n, 2.0/n, 7)
	g.Freeze()
	g.Fingerprint()
	var wg sync.WaitGroup
	counts := make([]int, 4)
	for w := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				counts[w] = len(g.Edges())
			} else {
				counts[w] = g.Clone().M()
			}
		}()
	}
	wg.Wait()
	for w, c := range counts {
		if c != g.M() {
			t.Fatalf("reader %d saw %d edges, want %d", w, c, g.M())
		}
	}
}
