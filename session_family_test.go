// Tests for the Session's graph memo (Session.Family): one shared frozen
// graph per (family, n) behind fresh Networks, LRU eviction at the
// labeling-cache capacity, no memo at capacity 0, and bit-identity with
// the package-level Family.
package radiobcast_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"radiobcast"
)

func sessionFamily(t *testing.T, sess *radiobcast.Session, name string, n int) *radiobcast.Network {
	t.Helper()
	net, err := sess.Family(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSessionFamilySharesGraph: repeated calls share one *Graph but hand
// out distinct Networks, so setting roles on one never moves another.
func TestSessionFamilySharesGraph(t *testing.T) {
	sess := radiobcast.NewSession()
	a := sessionFamily(t, sess, "grid", 16)
	b := sessionFamily(t, sess, "grid", 16)
	if a == b {
		t.Fatal("Family returned the same *Network twice")
	}
	if a.Graph != b.Graph {
		t.Fatal("Family rebuilt a memoized graph")
	}
	a.At(5).Coordinated(3)
	if b.Source != 0 || b.Coordinator != 0 {
		t.Fatalf("At/Coordinated on one Network moved another: %+v", b)
	}
	if c := sessionFamily(t, sess, "grid", 16); c.Source != 0 || c.Coordinator != 0 {
		t.Fatalf("At/Coordinated leaked into the memo: %+v", c)
	}
	if st := sess.Stats(); st.GraphBuilds != 1 || st.GraphHits != 2 {
		t.Fatalf("stats = %+v, want 1 graph build / 2 graph hits", st)
	}
	want, _ := radiobcast.Family("grid", 16)
	if a.Name != want.Name || !reflect.DeepEqual(a.Graph.Edges(), want.Graph.Edges()) {
		t.Fatal("memoized network differs from Family's")
	}
}

// TestSessionFamilyEviction: the memo is an LRU bounded by the
// labeling-cache capacity.
func TestSessionFamilyEviction(t *testing.T) {
	sess := radiobcast.NewSession(radiobcast.WithLabelingCache(2))
	path := sessionFamily(t, sess, "path", 16)
	grid := sessionFamily(t, sess, "grid", 16)
	sessionFamily(t, sess, "cycle", 16) // evicts path, the LRU victim
	if sessionFamily(t, sess, "grid", 16).Graph != grid.Graph {
		t.Fatal("grid was evicted before the older path")
	}
	if sessionFamily(t, sess, "path", 16).Graph == path.Graph {
		t.Fatal("path survived past the capacity")
	}
	if st := sess.Stats(); st.GraphBuilds != 4 || st.GraphHits != 1 {
		t.Fatalf("stats = %+v, want 4 graph builds / 1 graph hit", st)
	}
}

// TestSessionFamilyNoMemo: capacity 0 means no memo; every call builds.
func TestSessionFamilyNoMemo(t *testing.T) {
	sess := radiobcast.NewSession(radiobcast.WithLabelingCache(0))
	if sessionFamily(t, sess, "grid", 16).Graph == sessionFamily(t, sess, "grid", 16).Graph {
		t.Fatal("capacity 0 still shared a graph")
	}
	if st := sess.Stats(); st.GraphBuilds != 2 || st.GraphHits != 0 {
		t.Fatalf("stats = %+v, want 2 graph builds / 0 hits", st)
	}
}

// TestSessionFamilyUnknownNotCached: an unknown family errors every time
// and never enters the memo.
func TestSessionFamilyUnknownNotCached(t *testing.T) {
	sess := radiobcast.NewSession()
	for i := 0; i < 2; i++ {
		if _, err := sess.Family("nosuch", 16); err == nil {
			t.Fatalf("call %d: unknown family accepted", i)
		}
	}
	if st := sess.Stats(); st.GraphBuilds != 0 || st.GraphHits != 0 {
		t.Fatalf("stats = %+v, want no graph traffic", st)
	}
}

// TestSessionFamilyConcurrentFirstCalls: callers racing on a cold key
// wait for the one build and share its graph.
func TestSessionFamilyConcurrentFirstCalls(t *testing.T) {
	sess := radiobcast.NewSession()
	nets := make([]*radiobcast.Network, 8)
	var wg sync.WaitGroup
	for i := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net, err := sess.Family("gnp-sparse", 512)
			if err != nil {
				t.Error(err)
				return
			}
			nets[i] = net
		}()
	}
	wg.Wait()
	for i, net := range nets {
		if net == nil || net.Graph != nets[0].Graph {
			t.Fatalf("caller %d did not share the first caller's graph", i)
		}
	}
	if st := sess.Stats(); st.GraphBuilds != 1 || st.GraphHits != uint64(len(nets)-1) {
		t.Fatalf("stats = %+v, want 1 graph build / %d hits", st, len(nets)-1)
	}
}

// TestSessionFamilyPanicNotMemoized: a generator that panics (a negative
// size) leaves no entry behind, so the next call builds again instead of
// waiting forever on the abandoned one.
func TestSessionFamilyPanicNotMemoized(t *testing.T) {
	sess := radiobcast.NewSession()
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("call %d: negative size did not panic", i)
				}
			}()
			sess.Family("path", -1)
		}()
	}
	if st := sess.Stats(); st.GraphBuilds != 0 || st.GraphHits != 0 {
		t.Fatalf("stats = %+v, want no graph traffic", st)
	}
}

// TestSessionFamilyFigure1KeepsSource: figure1's preset source survives
// the memo, on the build and on the hit.
func TestSessionFamilyFigure1KeepsSource(t *testing.T) {
	sess := radiobcast.NewSession()
	want := radiobcast.Figure1()
	for i := 0; i < 2; i++ {
		net := sessionFamily(t, sess, "figure1", 0)
		if net.Source != want.Source || net.Name != want.Name {
			t.Fatalf("call %d: figure1 network %+v, want source %d", i, net, want.Source)
		}
	}
}

// TestSessionFamilyMatchesFacade is the differential check: over every
// family of TestSchemeMatrix, a run and a label through Session.Family
// equal those through Family, by outcome and by wire bytes, on the
// build and on the memo hit.
func TestSessionFamilyMatchesFacade(t *testing.T) {
	ctx := context.Background()
	sess := radiobcast.NewSession()
	type fam struct {
		name string
		n    int
	}
	for _, f := range []fam{{"path", 10}, {"cycle", 9}, {"grid", 16}, {"gnp-sparse", 12}, {"complete", 8}, {"star", 9}, {"figure1", 0}} {
		for _, scheme := range []string{"b", "back", "barb"} {
			ref, err := radiobcast.Family(f.name, f.n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := radiobcast.Run(ref, scheme, radiobcast.WithMessage("m"))
			if err != nil {
				t.Fatal(err)
			}
			wantL, err := radiobcast.LabelNetwork(ref, scheme)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := wantL.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				got, err := sess.Run(ctx, sessionFamily(t, sess, f.name, f.n), scheme, radiobcast.WithMessage("m"))
				if err != nil {
					t.Fatal(err)
				}
				if !sameResults(want.Result, got.Result) || got.Source != want.Source ||
					got.CompletionRound != want.CompletionRound || got.AllInformed != want.AllInformed ||
					!reflect.DeepEqual(got.InformedRound, want.InformedRound) {
					t.Fatalf("%s/%s call %d: run diverged from Family's", f.name, scheme, i)
				}
				l, err := sess.Label(ctx, sessionFamily(t, sess, f.name, f.n), scheme)
				if err != nil {
					t.Fatal(err)
				}
				gotBytes, err := l.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Fatalf("%s/%s call %d: wire bytes differ", f.name, scheme, i)
				}
			}
		}
	}
}
