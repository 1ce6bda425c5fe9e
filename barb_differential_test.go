package radiobcast_test

import (
	"fmt"
	"reflect"
	"testing"

	"radiobcast"
)

// TestBarbWakerEverySource pins Barb's Waker hints against the dense
// reference loop, which steps every node every round and never consults
// them. Every source under several coordinators reaches the branches the
// default-source matrix misses: sG's deferred phase-2 ack (source ≠ r),
// the coordinator that already holds µ and schedules phase 3 during
// phase 1 (source = r), and the two-node network.
func TestBarbWakerEverySource(t *testing.T) {
	fams := []struct {
		name string
		n    int
	}{
		{"path", 2}, {"path", 12}, {"cycle", 9}, {"grid", 16}, {"gnp-sparse", 14},
		{"star", 9}, {"complete", 8}, {"btree", 15}, {"caterpillar", 12},
	}
	for _, f := range fams {
		net, err := radiobcast.Family(f.name, f.n)
		if err != nil {
			t.Fatal(err)
		}
		n := net.Graph.N()
		coords := map[int]bool{0: true, n / 2: true, n - 1: true}
		for r := range coords {
			t.Run(fmt.Sprintf("%s/%d/r=%d", f.name, f.n, r), func(t *testing.T) {
				l, err := radiobcast.LabelNetwork(net.Coordinated(r), "barb")
				if err != nil {
					t.Fatal(err)
				}
				if l.R != r {
					t.Fatalf("labeling coordinator %d, want %d", l.R, r)
				}
				for src := 0; src < n; src++ {
					run := func(opts ...radiobcast.Option) *radiobcast.Outcome {
						t.Helper()
						out, err := radiobcast.RunLabeled(l, append(opts,
							radiobcast.WithSource(src), radiobcast.WithMessage("m"))...)
						if err != nil {
							t.Fatal(err)
						}
						return out
					}
					ref, got := run(radiobcast.WithReferenceEngine()), run()
					if !sameResults(ref.Result, got.Result) {
						t.Fatalf("src=%d: bitset Result diverged from the dense reference engine", src)
					}
					if !reflect.DeepEqual(ref.InformedRound, got.InformedRound) ||
						!reflect.DeepEqual(ref.KnowsCompleteRound, got.KnowsCompleteRound) ||
						ref.TotalRounds != got.TotalRounds || ref.T != got.T {
						t.Fatalf("src=%d: Barb outcome diverged from the dense reference engine", src)
					}
					if err := radiobcast.Verify(got); err != nil {
						t.Fatalf("src=%d: %v", src, err)
					}
				}
			})
		}
	}
}
