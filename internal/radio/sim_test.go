package radio

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
)

// echo is a reactive test protocol: it retransmits whatever it hears,
// delay rounds after hearing it. It does not implement Waker, so the
// bitset engine must still step it whenever it can act.
type echo struct {
	round   int
	sendAt  int
	pending Message
}

func (e *echo) Step(rcv *Message) Action {
	e.round++
	if rcv != nil {
		e.pending = *rcv
		e.sendAt = e.round + e.delayOf(rcv)
	}
	if e.sendAt == e.round {
		return Send(e.pending)
	}
	return Listen
}

func (e *echo) delayOf(m *Message) int { return 1 + len(m.Payload)%3 }

// wakingEcho is echo with the sparse-wakeup contract.
type wakingEcho struct{ echo }

func (e *wakingEcho) NextWake() int {
	if e.sendAt > e.round {
		return e.sendAt
	}
	return NeverWake
}

func (e *wakingEcho) Skip(rounds int) { e.round += rounds }

// randomProtocols builds a mixed population over n nodes: scripted
// transmitters (Waker), waking echoes (Waker) and plain echoes (stepped
// every round by the bitset engine too), deterministically from seed.
func randomProtocols(n int, seed int64) []Protocol {
	r := rand.New(rand.NewSource(seed))
	ps := make([]Protocol, n)
	for v := range ps {
		switch r.Intn(3) {
		case 0:
			sched := map[int]Message{}
			for k := r.Intn(4); k > 0; k-- {
				sched[1+r.Intn(30)] = Message{Kind: KindData, Payload: fmt.Sprintf("p%d", r.Intn(8))}
			}
			ps[v] = &Scripted{Schedule: sched}
		case 1:
			ps[v] = &wakingEcho{}
		default:
			ps[v] = &echo{}
		}
	}
	return ps
}

func testGraphs(t testing.TB) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":   graph.Path(17),
		"star":   graph.Star(12),
		"grid":   graph.Grid(5, 5),
		"gnp":    graph.GNPConnected(40, 0.12, 7),
		"figure": graph.Figure1(),
		// Spans four 64-node words, so a round's deliveries reach the
		// bitset engine's logs out of node order.
		"gnp-wide": graph.GNPConnected(200, 0.03, 11),
	}
}

// TestSparseMatchesDense pins the sparse-wakeup contract: the bitset
// engine, which skips Wakers between their NextWake hints, produces
// Results and traces bit-identical to the dense reference loop, which
// steps every node every round, on mixed Waker/non-Waker protocol
// populations.
func TestSparseMatchesDense(t *testing.T) {
	for name, g := range testGraphs(t) {
		for seed := int64(1); seed <= 4; seed++ {
			refTr, gotTr := &Trace{}, &Trace{}
			ref := Run(g, randomProtocols(g.N(), seed), Options{MaxRounds: 60, Reference: true, Trace: refTr})
			got := Run(g, randomProtocols(g.N(), seed), Options{MaxRounds: 60, Trace: gotTr})
			if !resultsEqual(ref, got) {
				t.Fatalf("%s seed=%d: bitset engine diverged from dense reference", name, seed)
			}
			if !reflect.DeepEqual(refTr, gotTr) {
				t.Fatalf("%s seed=%d: bitset engine's trace diverged from dense reference", name, seed)
			}
		}
	}
}

// TestSparseMatchesDenseWithFaults repeats the differential under fault
// injection, which exercises the dropped-transmission paths of both
// channel resolvers.
func TestSparseMatchesDenseWithFaults(t *testing.T) {
	drop := func(node, round int) bool { return (node+round)%5 == 0 }
	for name, g := range testGraphs(t) {
		ref := Run(g, randomProtocols(g.N(), 3), Options{MaxRounds: 60, Faults: faults.DropFunc(drop), Reference: true})
		got := Run(g, randomProtocols(g.N(), 3), Options{MaxRounds: 60, Faults: faults.DropFunc(drop)})
		if !resultsEqual(ref, got) {
			t.Fatalf("%s: bitset engine diverged from dense reference under faults", name)
		}
	}
}

// TestSimReuse drives one Sim across runs of different sizes and checks
// that reuse changes nothing and that earlier Results stay intact
// (materialize must detach them from the Sim's buffers).
func TestSimReuse(t *testing.T) {
	sim := NewSim()
	type run struct {
		g    *graph.Graph
		seed int64
	}
	runs := []run{
		{graph.Grid(5, 5), 1},
		{graph.Path(40), 2},
		{graph.Star(6), 3},
		{graph.Grid(5, 5), 1}, // repeat of the first
	}
	var kept []*Result
	var fresh []*Result
	for _, r := range runs {
		kept = append(kept, sim.Run(r.g, randomProtocols(r.g.N(), r.seed), Options{MaxRounds: 50}))
		fresh = append(fresh, Run(r.g, randomProtocols(r.g.N(), r.seed), Options{MaxRounds: 50, Reference: true}))
	}
	for i := range runs {
		if !resultsEqual(kept[i], fresh[i]) {
			t.Fatalf("run %d: reused Sim diverged from fresh reference run", i)
		}
	}
	if !resultsEqual(kept[0], kept[3]) {
		t.Fatalf("identical runs through one Sim differ")
	}
}

// TestWakerSkipAccounting checks that a protocol skipped by the bitset
// engine observes exactly the same local round numbering as under the
// reference loop: Scripted's own transmissions land in the scheduled
// rounds.
func TestWakerSkipAccounting(t *testing.T) {
	g := graph.Path(3)
	mk := func() []Protocol {
		return []Protocol{
			NewScripted(Message{Kind: KindData, Payload: "a"}, 5, 9, 23),
			&Scripted{}, // silent
			NewScripted(Message{Kind: KindData, Payload: "b"}, 14),
		}
	}
	res := Run(g, mk(), Options{MaxRounds: 30})
	if got, want := fmt.Sprint(res.Transmits[0]), "[5 9 23]"; got != want {
		t.Fatalf("node 0 transmitted in %v, want %s", got, want)
	}
	if got, want := fmt.Sprint(res.Transmits[2]), "[14]"; got != want {
		t.Fatalf("node 2 transmitted in %v, want %s", got, want)
	}
	// Node 1 hears each uncontended transmission.
	if len(res.Receives[1]) != 4 {
		t.Fatalf("node 1 received %d messages, want 4", len(res.Receives[1]))
	}
}

// TestCompiledScriptMatchesMap pins the two Scripted population styles to
// identical behaviour.
func TestCompiledScriptMatchesMap(t *testing.T) {
	msg := Message{Kind: KindData, Payload: "x"}
	g := graph.Path(2)
	a := Run(g, []Protocol{NewScripted(msg, 2, 7, 7, 11), &Scripted{}}, Options{MaxRounds: 15})
	compiled := CompiledScript([]int{2, 7, 11}, []Message{msg, msg, msg})
	b := Run(g, []Protocol{&compiled, &Scripted{}}, Options{MaxRounds: 15})
	if !resultsEqual(a, b) {
		t.Fatalf("compiled script diverged from map-driven script")
	}
}

// TestNoReceptionSentinel pins the documented sentinel value and the
// 1-based round convention.
func TestNoReceptionSentinel(t *testing.T) {
	g := graph.Path(3)
	res := Run(g, []Protocol{
		NewScripted(Message{Kind: KindData, Payload: "x"}, 1),
		&Scripted{}, &Scripted{},
	}, Options{MaxRounds: 3})
	if r := res.FirstReception(1, KindData); r != 1 {
		t.Fatalf("adjacent node first reception in round %d, want 1 (rounds are 1-based)", r)
	}
	if r := res.FirstReception(2, KindData); r != NoReception {
		t.Fatalf("unreached node first reception %d, want NoReception", r)
	}
	if NoReception != 0 {
		t.Fatalf("NoReception must be 0 for backward compatibility, got %d", NoReception)
	}
}

// TestSimZeroSteadyStateAllocs pins the engine-side allocation behaviour:
// after warm-up, repeated runs through one Sim allocate only the detached
// Result (a constant handful of allocations, independent of traffic).
func TestSimZeroSteadyStateAllocs(t *testing.T) {
	g := graph.Grid(8, 8)
	g.Freeze()
	sim := NewSim()
	protos := make([]Protocol, g.N())
	scripts := make([]Scripted, g.N())
	msg := Message{Kind: KindData, Payload: "m"}
	rounds := make([]int, g.N())
	msgs := make([]Message, g.N())
	for v := range rounds {
		rounds[v] = 1 + v%16
		msgs[v] = msg
	}
	reset := func() {
		for v := range protos {
			scripts[v] = CompiledScript(rounds[v:v+1], msgs[v:v+1])
			protos[v] = &scripts[v]
		}
	}
	reset()
	sim.Run(g, protos, Options{MaxRounds: 20}) // warm-up sizes every buffer
	allocs := testing.AllocsPerRun(20, func() {
		reset()
		sim.Run(g, protos, Options{MaxRounds: 20})
	})
	// materialize detaches the Result: 1 struct + 3 per-node views + 2
	// backing arrays; everything else must be reused.
	if allocs > 8 {
		t.Fatalf("steady-state Sim.Run does %.0f allocs/run, want ≤ 8", allocs)
	}
}
