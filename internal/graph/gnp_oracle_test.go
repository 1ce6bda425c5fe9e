package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// gnpConnectedOracle is GNPConnected's original pair loop, kept as the
// reference the bulk construction is checked against: a random tree,
// then every pair tested with HasEdge and drawn, with each edge inserted
// through the sorted AddEdge.
func gnpConnectedOracle(n int, p float64, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, r.Intn(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(i, j) && r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// TestGNPConnectedMatchesOracle pins the bulk GNPConnected to the
// original pair loop: same random draws, so the same edges and the same
// fingerprint, for the gnp-sparse and gnp-dense family parameters.
func TestGNPConnectedMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 64, 256, 1024, 4096} {
		ps := []float64{2.0 / float64(max(2, n))}
		if n <= 1024 {
			ps = append(ps, 0.3)
		}
		for _, p := range ps {
			got, want := GNPConnected(n, p, int64(n)), gnpConnectedOracle(n, p, int64(n))
			if got.M() != want.M() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Fatalf("n=%d p=%g: edges differ (m=%d, oracle m=%d)", n, p, got.M(), want.M())
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("n=%d p=%g: fingerprint differs", n, p)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("n=%d p=%g: %v", n, p, err)
			}
		}
	}
}
