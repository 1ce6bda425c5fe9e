package radio

import (
	"fmt"

	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
)

// Waker is an optional Protocol extension for schedule-driven protocols
// (B, Back, Barb, the slotted baselines, scripted schedules): it lets the
// engine skip the Step call for nodes that provably cannot act in a round.
//
// The engine guarantees a Step call in every round r in which the node
// heard a message in round r−1 (or, for a NoiseProtocol, detected noise),
// and in every round ≥ the round most recently returned by NextWake. It
// may skip Step in any other round; before the next real Step it reports
// the number of skipped rounds through Skip, so the protocol's internal
// round counter stays in sync. A skipped round is externally identical to
// a Step that returned Listen — the bitset engine and the dense reference
// loop, which steps every node every round and never consults a Waker,
// produce bit-identical Results (pinned by TestSparseMatchesDense and the
// facade's engine-mode matrix tests).
type Waker interface {
	// NextWake returns the absolute 1-based round number of the next round
	// in which the protocol might return a non-Listen action — or otherwise
	// needs to observe the passage of time — assuming it hears neither a
	// message nor noise in any intervening round. Returning NeverWake means
	// the protocol stays passive until its next reception. Returning a
	// round in 1..current is safe and simply disables skipping — but 0
	// is NeverWake, which suspends the node until its next reception;
	// implementations whose arithmetic can yield 0 must special-case it.
	NextWake() int
	// Skip informs the protocol that `rounds` rounds elapsed in which it
	// was not stepped. Implementations advance their internal round counter
	// by that amount, exactly as if Step had been called with nil and had
	// returned Listen each time.
	Skip(rounds int)
}

// NeverWake is returned by NextWake when the protocol has no scheduled
// future action: it will stay silent until it next hears something.
const NeverWake = 0

// Sim is a reusable simulation engine. It owns every per-run buffer —
// heard/busy channel state, the per-round action and fault vectors, and
// the flat transmit/receive accumulators — and resizes rather than
// reallocates them between runs, so driving many runs through one Sim
// (the label-once/run-many regime of the paper and the Sweep workloads)
// does only a constant number of small allocations per run regardless of
// graph size.
//
// A Sim may be used for any sequence of runs over graphs of any sizes,
// but a single Sim must not run concurrently with itself. The zero value
// is ready to use. Run detaches the returned Result from the Sim's
// buffers: Results remain valid after later runs.
type Sim struct {
	n   int
	cur int // index of the "current" half of the double buffers

	protos []Protocol
	noise  []NoiseProtocol
	wakers []Waker

	actions []Action
	dropped []bool // jammed transmitters (reference loop only)

	// Double-buffered channel state: the messages heard in the previous
	// round, plus — for the reference loop only — whether each node heard
	// one (sets) and whether ≥ 1 neighbour transmitted (busys, for
	// collision-detection protocols). The bitset engine keeps the last
	// two word-packed in bitState.
	msgs  [2][]Message
	sets  [2][]bool
	busys [2][]bool

	nextWake []int
	txList   []int32 // this round's transmitters, in ascending node order

	deliverCnt []int32 // materialize scratch, zero between runs

	collisions []int

	// Fault-injection state, live only when Options.Faults is set: the
	// per-round effect vector written by the model and the monotone
	// informed-set view it may consult (Heard in faults.State). The clean
	// path never touches these beyond the s.faulted flag checks.
	faulted bool
	effects []faults.Effect
	heard   []bool

	// Flat event logs, materialized into Result at the end of a run.
	txNodes  []int32
	txRounds []int32
	rxNodes  []int32
	rxRecs   []Reception

	maxBits int

	// bits holds the word-packed state of the bitset engine, built on
	// the first run and reused like every other buffer (see bitsim.go).
	bits *bitState
}

// NewSim returns an empty Sim ready for its first Run.
func NewSim() *Sim { return &Sim{} }

// grow returns buf with length n, reusing its backing array when large
// enough; the returned slice is zeroed either way.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (s *Sim) reset(n int, protos []Protocol) {
	s.n = n
	s.cur = 0
	s.protos = protos
	s.noise = grow(s.noise, n)
	s.wakers = grow(s.wakers, n)
	for v, p := range protos {
		if np, ok := p.(NoiseProtocol); ok {
			s.noise[v] = np
		}
		if w, ok := p.(Waker); ok {
			s.wakers[v] = w
		}
	}
	s.actions = grow(s.actions, n)
	for i := 0; i < 2; i++ {
		s.msgs[i] = grow(s.msgs[i], n)
	}
	s.nextWake = grow(s.nextWake, n)
	for v := range s.nextWake {
		s.nextWake[v] = 1 // every node is stepped in round 1
	}
	s.txList = s.txList[:0]
	s.deliverCnt = grow(s.deliverCnt, n)
	s.collisions = grow(s.collisions, n)
	s.txNodes = s.txNodes[:0]
	s.txRounds = s.txRounds[:0]
	s.rxNodes = s.rxNodes[:0]
	s.rxRecs = s.rxRecs[:0]
	s.maxBits = 0
}

// Run executes the protocols on g under the radio model (see Run at
// package level for the semantics; this is the same engine with explicit
// buffer ownership). Every run goes through the bitset engine (bitsim.go)
// unless opt.Reference selects the dense reference loop (reference.go).
func (s *Sim) Run(g *graph.Graph, protos []Protocol, opt Options) *Result {
	csr := s.prepareRun(g, protos, opt)
	topo, fst := s.setupFaults(opt.Faults, s.n)
	if opt.Reference {
		return s.runReference(csr, opt, topo, fst)
	}
	var lane bitLane
	lane.init(s, csr, opt, topo, fst)
	return lane.run()
}

// prepareRun validates a (graph, protocols, options) triple, sizes the
// engine buffers, and freezes the graph.
func (s *Sim) prepareRun(g *graph.Graph, protos []Protocol, opt Options) *graph.CSR {
	n := g.N()
	if len(protos) != n {
		panic(fmt.Sprintf("radio: %d protocols for %d nodes", len(protos), n))
	}
	if opt.MaxRounds <= 0 {
		panic("radio: Options.MaxRounds must be positive")
	}
	csr := g.Freeze()
	s.reset(n, protos)
	return csr
}

// setupFaults primes the per-run fault-injection state and returns the
// model's optional topology extension plus the reusable State snapshot
// (nil, nil on clean runs — fst escapes through the Apply interface
// calls, so it is allocated only when a model is installed and the clean
// path stays allocation-free).
func (s *Sim) setupFaults(fm faults.Model, n int) (faults.TopologyModel, *faults.State) {
	s.faulted = fm != nil
	if !s.faulted {
		return nil, nil
	}
	s.effects = grow(s.effects, n)
	s.heard = grow(s.heard, n)
	if s.txList == nil {
		s.txList = []int32{} // keep non-nil: nil signals the pre-step phase
	}
	fm.Reset(n)
	topo, _ := fm.(faults.TopologyModel)
	return topo, &faults.State{}
}

// release drops every reference the buffers hold into caller objects
// (protocols, message payloads) once the run is over, so an idle Sim —
// pooled or caller-owned — does not keep the last network's protocol
// state and payload strings live. The int/bool buffers are kept as is;
// reset re-clears everything on the next run.
func (s *Sim) release() {
	s.protos = nil
	clear(s.noise)
	clear(s.wakers)
	clear(s.actions)
	for i := 0; i < 2; i++ {
		clear(s.msgs[i])
	}
	clear(s.rxRecs)
}

func (s *Sim) logTransmit(v int32, round int) {
	s.txNodes = append(s.txNodes, v)
	s.txRounds = append(s.txRounds, int32(round))
	if b := s.actions[v].Msg.BitLen(); b > s.maxBits {
		s.maxBits = b
	}
}

// materialize builds the caller-owned Result from the flat event logs:
// a constant number of allocations regardless of traffic, with per-node
// views carved out of two exactly-sized backing arrays.
func (s *Sim) materialize(rounds, total int, silentStopped bool) *Result {
	n := s.n
	res := &Result{
		Rounds:             rounds,
		TotalTransmissions: total,
		MaxMessageBits:     s.maxBits,
		SilentStopped:      silentStopped,
		Collisions:         make([]int, n),
		Transmits:          make([][]int, n),
		Receives:           make([][]Reception, n),
	}
	copy(res.Collisions, s.collisions)

	cnt := s.deliverCnt
	for _, v := range s.txNodes {
		cnt[v]++
	}
	txBacking := make([]int, len(s.txNodes))
	off := 0
	for v := 0; v < n; v++ {
		if c := int(cnt[v]); c > 0 {
			res.Transmits[v] = txBacking[off : off : off+c]
			off += c
		}
	}
	for i, v := range s.txNodes {
		res.Transmits[v] = append(res.Transmits[v], int(s.txRounds[i]))
	}
	for _, v := range s.txNodes {
		cnt[v] = 0
	}

	for _, v := range s.rxNodes {
		cnt[v]++
	}
	rxBacking := make([]Reception, len(s.rxNodes))
	off = 0
	for v := 0; v < n; v++ {
		if c := int(cnt[v]); c > 0 {
			res.Receives[v] = rxBacking[off : off : off+c]
			off += c
		}
	}
	for i, v := range s.rxNodes {
		res.Receives[v] = append(res.Receives[v], s.rxRecs[i])
	}
	for _, v := range s.rxNodes {
		cnt[v] = 0
	}
	return res
}
