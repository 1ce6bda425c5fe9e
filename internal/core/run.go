package core

import (
	"fmt"

	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// BroadcastOutcome summarises a run of algorithm B.
type BroadcastOutcome struct {
	Result *radio.Result
	// InformedRound[v] is the round in which v first received µ (0 for the
	// source). AllInformed is true when every node received µ.
	InformedRound []int
	AllInformed   bool
	// CompletionRound is the largest InformedRound (the t of Theorem 2.9).
	CompletionRound int
	// Stages is the construction underlying the labels.
	Stages *Stages
	Labels []Label
}

// RunBroadcast labels g with λ (under opt) and executes algorithm B with
// source message mu, returning the outcome. MaxRounds defaults to 2n+4,
// comfortably above the paper's 2n−3 bound.
func RunBroadcast(g *graph.Graph, source int, mu string, opt BuildOptions) (*BroadcastOutcome, error) {
	l, err := Lambda(g, source, opt)
	if err != nil {
		return nil, err
	}
	return RunBroadcastLabeled(g, l, source, mu, nil)
}

// RunBroadcastLabeled executes B on a pre-labeled graph. trace may be nil.
func RunBroadcastLabeled(g *graph.Graph, l *Labeling, source int, mu string, trace *radio.Trace) (*BroadcastOutcome, error) {
	var tune *radio.Tuning
	if trace != nil {
		tune = &radio.Tuning{Trace: trace}
	}
	return RunBroadcastTuned(g, l, source, mu, tune)
}

// RunBroadcastTuned executes B on a pre-labeled graph with engine tuning
// (round-bound override, trace, fault injection, cancellation) layered
// onto the scheme's default options. tune may be nil.
func RunBroadcastTuned(g *graph.Graph, l *Labeling, source int, mu string, tune *radio.Tuning) (*BroadcastOutcome, error) {
	n := g.N()
	base := radio.Options{
		MaxRounds:       2*n + 4,
		StopAfterSilent: 3,
	}
	res := radio.Run(g, NewBProtocols(l.Labels, source, mu), base.With(tune))
	out := &BroadcastOutcome{Result: res, Stages: l.Stages, Labels: l.Labels}
	out.InformedRound, out.AllInformed, out.CompletionRound = informedRounds(res, source)
	return out, nil
}

// informedRounds reads each node's first KindData reception off a run:
// the per-node rounds (0 for the source), whether everyone was reached,
// and the latest of them.
func informedRounds(res *radio.Result, source int) (rounds []int, all bool, completion int) {
	rounds = make([]int, len(res.Receives))
	all = true
	for v := range rounds {
		if v == source {
			continue
		}
		r := res.FirstReception(v, radio.KindData)
		rounds[v] = r
		if r == radio.NoReception {
			all = false
		}
		completion = max(completion, r)
	}
	return rounds, all, completion
}

// VerifyBroadcast checks the outcome against the paper's guarantees:
// everyone informed, within 2n−3 rounds (Theorem 2.9), with each node
// informed exactly in round 2i−1 for its stage i (Lemma 2.8), and all
// received payloads equal to µ.
func VerifyBroadcast(out *BroadcastOutcome, mu string) error {
	n := len(out.InformedRound)
	if !out.AllInformed {
		return fmt.Errorf("core: broadcast incomplete: %v", out.InformedRound)
	}
	if n >= 2 && out.CompletionRound > 2*n-3 {
		return fmt.Errorf("core: completion round %d exceeds 2n−3 = %d", out.CompletionRound, 2*n-3)
	}
	stageOf := out.Stages.InformedStage()
	for v := 0; v < n; v++ {
		if v == out.Stages.Source {
			continue
		}
		want := 2*stageOf[v] - 1
		if out.InformedRound[v] != want {
			return fmt.Errorf("core: node %d informed in round %d, Lemma 2.8 predicts %d", v, out.InformedRound[v], want)
		}
		for _, rec := range out.Result.Receives[v] {
			if rec.Msg.Kind == radio.KindData && rec.Msg.Payload != mu {
				return fmt.Errorf("core: node %d received payload %q, want %q", v, rec.Msg.Payload, mu)
			}
		}
	}
	return nil
}

// AckOutcome summarises a run of algorithm Back.
type AckOutcome struct {
	BroadcastOutcome
	// AckRound is the round in which the source received an "ack"
	// (the t′ of Theorem 3.9); 0 if it never arrived.
	AckRound int
	Z        int
}

// RunAcknowledged labels g with λack and executes Back.
func RunAcknowledged(g *graph.Graph, source int, mu string, opt BuildOptions) (*AckOutcome, error) {
	l, err := LambdaAck(g, source, opt)
	if err != nil {
		return nil, err
	}
	return RunAcknowledgedLabeled(g, l, source, mu)
}

// RunAcknowledgedLabeled executes Back on a pre-labeled graph (λack labels).
func RunAcknowledgedLabeled(g *graph.Graph, l *Labeling, source int, mu string) (*AckOutcome, error) {
	return RunAcknowledgedTuned(g, l, source, mu, nil)
}

// RunAcknowledgedTuned executes Back on a pre-labeled graph with engine
// tuning layered onto the scheme's default options. tune may be nil.
func RunAcknowledgedTuned(g *graph.Graph, l *Labeling, source int, mu string, tune *radio.Tuning) (*AckOutcome, error) {
	n := g.N()
	ps := NewBackProtocols(l.Labels, source, mu)
	base := radio.Options{
		MaxRounds:       3*n + 6,
		StopAfterSilent: 3,
	}
	res := radio.Run(g, ps, base.With(tune))
	out := &AckOutcome{Z: l.Z}
	out.Result = res
	out.Stages = l.Stages
	out.Labels = l.Labels
	out.InformedRound, out.AllInformed, out.CompletionRound = informedRounds(res, source)
	if src := ps[source].(*AlgBack); src.AckDone {
		out.AckRound = src.AckRound
	}
	return out, nil
}

// VerifyAcknowledged checks Theorem 3.9 and Corollary 3.8: broadcast
// completes by t ≤ 2n−3; the source's ack arrives in a round
// t′ ∈ {2ℓ−2, …, 3ℓ−4}; and the ack arrives strictly after completion.
func VerifyAcknowledged(out *AckOutcome, mu string) error {
	if err := VerifyBroadcast(&out.BroadcastOutcome, mu); err != nil {
		return err
	}
	n := len(out.InformedRound)
	if n < 2 {
		return nil // no acknowledgement needed for a single node
	}
	if out.AckRound == 0 {
		return fmt.Errorf("core: source never received an ack")
	}
	if out.AckRound <= out.CompletionRound {
		return fmt.Errorf("core: ack round %d not after completion round %d", out.AckRound, out.CompletionRound)
	}
	l := out.Stages.L
	lo, hi := 2*l-2, 3*l-4
	if hi < lo {
		hi = lo // ℓ = 2: the window degenerates to {2ℓ−2}
	}
	if out.AckRound < lo || out.AckRound > hi {
		return fmt.Errorf("core: ack round %d outside Corollary 3.8 window [%d,%d] (ℓ=%d)", out.AckRound, lo, hi, l)
	}
	return nil
}

// CommonRoundOutcome summarises the §3 composition Back→B that yields a
// common round in which all nodes know broadcast has completed.
type CommonRoundOutcome struct {
	Ack *AckOutcome
	// M is the round in which the source first received the ack; the second
	// broadcast disseminates m = M and every node knows completion at round
	// 2M of the second execution's clock.
	M int
	// SecondCompletion is the completion round of the second broadcast.
	SecondCompletion int
	// CommonRound is 2M (in the second execution's clock).
	CommonRound int
}

// RunCommonRound performs acknowledged broadcast and then broadcasts the
// ack round m with algorithm B, verifying all nodes receive m before round
// 2m (the paper's closing argument of §3).
func RunCommonRound(g *graph.Graph, source int, mu string, opt BuildOptions) (*CommonRoundOutcome, error) {
	ack, err := RunAcknowledged(g, source, mu, opt)
	if err != nil {
		return nil, err
	}
	if g.N() >= 2 && ack.AckRound == 0 {
		return nil, fmt.Errorf("core: acknowledged broadcast failed")
	}
	out := &CommonRoundOutcome{Ack: ack, M: ack.AckRound, CommonRound: 2 * ack.AckRound}
	// Second execution: B with message m (the labels' 2-bit prefix works
	// unchanged; extra bits are ignored by AlgB).
	second, err := RunBroadcastLabeled(g, &Labeling{Labels: ack.Labels, Stages: ack.Stages}, source, fmt.Sprintf("%d", out.M), nil)
	if err != nil {
		return nil, err
	}
	out.SecondCompletion = second.CompletionRound
	return out, nil
}

// VerifyCommonRound checks that the second broadcast finishes before round
// 2m, so that round 2m is a common completion-knowledge round.
func VerifyCommonRound(out *CommonRoundOutcome) error {
	if out.SecondCompletion >= out.CommonRound {
		return fmt.Errorf("core: second broadcast finished in round %d, not before 2m = %d", out.SecondCompletion, out.CommonRound)
	}
	return nil
}

// ArbOutcome summarises a run of Barb.
type ArbOutcome struct {
	Result *radio.Result
	Labels []Label
	R      int
	Source int
	// MuKnownRound[v]: absolute round when v learned µ (0 = source).
	MuKnownRound []int
	AllKnowMu    bool
	// KnowsCompleteRound[v]: absolute round from which v knows broadcast
	// completed (0 = never); for correct runs all entries are equal.
	KnowsCompleteRound []int
	TotalRounds        int
	T                  int
}

// RunArbitrary labels g with λarb (coordinator r) and runs Barb with node
// source holding message mu. Requires n ≥ 2.
func RunArbitrary(g *graph.Graph, r, source int, mu string, opt BuildOptions) (*ArbOutcome, error) {
	l, err := LambdaArb(g, r, opt)
	if err != nil {
		return nil, err
	}
	return RunArbitraryLabeled(g, l, source, mu)
}

// RunArbitraryLabeled runs Barb on a pre-labeled graph (λarb labels).
func RunArbitraryLabeled(g *graph.Graph, l *Labeling, source int, mu string) (*ArbOutcome, error) {
	return RunArbitraryTuned(g, l, source, mu, nil)
}

// RunArbitraryTuned runs Barb on a pre-labeled graph with engine tuning
// layered onto the scheme's default options. tune may be nil. Errors for
// n < 2 (Barb needs a coordinator and at least one other node).
func RunArbitraryTuned(g *graph.Graph, l *Labeling, source int, mu string, tune *radio.Tuning) (*ArbOutcome, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("core: Barb needs n ≥ 2")
	}
	ps := NewBarbProtocols(l.Labels, source, mu)
	nodes := make([]*AlgBarb, n)
	for v := range ps {
		nodes[v] = ps[v].(*AlgBarb)
	}
	base := radio.Options{
		MaxRounds: 14*n + 40,
		Stop: func(round int) bool {
			for _, nd := range nodes {
				if nd.KnowsCompleteRound == 0 || round < nd.KnowsCompleteRound {
					return false
				}
			}
			return true
		},
	}
	res := radio.Run(g, ps, base.With(tune))
	out := &ArbOutcome{
		Result: res, Labels: l.Labels, R: l.R, Source: source,
		MuKnownRound:       make([]int, n),
		KnowsCompleteRound: make([]int, n),
		AllKnowMu:          true,
		TotalRounds:        res.Rounds,
	}
	for v, nd := range nodes {
		if got, ok := nd.Mu(); !ok || got != mu {
			out.AllKnowMu = false
		}
		out.MuKnownRound[v] = nd.MuKnownRound
		out.KnowsCompleteRound[v] = nd.KnowsCompleteRound
		if t, ok := nd.TValue(); ok && t > out.T {
			out.T = t
		}
	}
	return out, nil
}

// VerifyArbitrary checks Barb's guarantees: every node learned µ with the
// right payload, and all nodes reach "knows complete" in the same round.
func VerifyArbitrary(g *graph.Graph, out *ArbOutcome, mu string) error {
	n := g.N()
	if !out.AllKnowMu {
		return fmt.Errorf("core: Barb incomplete: some node never learned µ")
	}
	common := 0
	for v := 0; v < n; v++ {
		kc := out.KnowsCompleteRound[v]
		if kc == 0 {
			return fmt.Errorf("core: node %d never knows completion", v)
		}
		if common == 0 {
			common = kc
		} else if kc != common {
			return fmt.Errorf("core: node %d knows completion at %d, others at %d", v, kc, common)
		}
	}
	return nil
}
