package radio

import (
	"radiobcast/internal/faults"
	"radiobcast/internal/graph"
)

// runReference is the dense reference loop selected by Options.Reference:
// every node is stepped every round (Waker hints are never consulted) and
// the channel is resolved listener by listener over bool vectors. It
// shares neither the bitset engine's wake calendar nor its word-parallel
// scatter, so the differential tests that compare the two also check the
// protocols' NextWake hints.
func (s *Sim) runReference(csr *graph.CSR, opt Options, topo faults.TopologyModel, fst *faults.State) *Result {
	n, fm := s.n, opt.Faults
	s.dropped = grow(s.dropped, n)
	for i := 0; i < 2; i++ {
		s.sets[i] = grow(s.sets[i], n)
		s.busys[i] = grow(s.busys[i], n)
	}
	silent, rounds, total := 0, 0, 0
	silentStopped, interrupted := false, false
	ctxDone := doneChan(opt.Ctx)
	for round := 1; round <= opt.MaxRounds; round++ {
		if cancelled(ctxDone) {
			interrupted = true
			break
		}
		nx := 1 - s.cur
		rxMark := len(s.rxNodes)
		if s.faulted {
			// Pre-step fault phase: swap in a churned topology, then let the
			// model set this round's Down/Wipe bits before any protocol
			// observes its pending reception.
			if topo != nil {
				if t := topo.Topology(round); t != nil {
					csr = t
				}
			}
			clear(s.effects)
			*fst = faults.State{Round: round, CSR: csr, Heard: s.heard}
			fm.Apply(fst, s.effects)
			for v := 0; v < n; v++ {
				if s.effects[v]&faults.Wipe != 0 {
					s.sets[s.cur][v] = false
					s.busys[s.cur][v] = false
				}
			}
		}

		// Phase 1: every node decides based on history through round−1.
		s.txList = s.txList[:0]
		for v := 0; v < n; v++ {
			a := s.stepNode(v)
			if s.faulted && a.Transmit && s.effects[v]&faults.Down != 0 {
				a = Listen // radio off: the clock runs, nothing reaches the channel
			}
			s.actions[v] = a
			if a.Transmit {
				s.txList = append(s.txList, int32(v))
			}
		}
		if s.faulted {
			// Post-decision fault phase: transmission-level effects (Jam).
			fst.Transmitters = s.txList
			fm.Apply(fst, s.effects)
			for v := 0; v < n; v++ {
				s.dropped[v] = s.actions[v].Transmit && s.effects[v]&faults.Jam != 0
			}
		}

		// Phase 2: resolve the channel at each listener, then log events.
		for v := 0; v < n; v++ {
			s.resolvePull(csr, v)
		}
		for _, t := range s.txList {
			s.logTransmit(t, round)
		}
		for v := 0; v < n; v++ {
			if s.sets[nx][v] {
				s.rxNodes = append(s.rxNodes, int32(v))
				s.rxRecs = append(s.rxRecs, Reception{Round: round, Msg: s.msgs[nx][v]})
			}
		}
		if s.faulted {
			for _, w := range s.rxNodes[rxMark:] {
				s.heard[w] = true
			}
			for _, t := range s.txList {
				s.heard[t] = true
			}
		}
		if opt.Trace != nil {
			opt.Trace.record(round, s.txList, s.actions, s.rxNodes[rxMark:], s.rxRecs[rxMark:])
		}
		transmitted := len(s.txList)
		total += transmitted
		s.cur = nx
		rounds = round
		if transmitted == 0 {
			silent++
		} else {
			silent = 0
		}
		if opt.Stop != nil && opt.Stop(round) {
			break
		}
		if opt.StopAfterSilent > 0 && silent >= opt.StopAfterSilent {
			silentStopped = true
			break
		}
	}
	res := s.materialize(rounds, total, silentStopped)
	res.Interrupted = interrupted
	s.release()
	return res
}

// stepNode invokes one protocol step. The received-message pointer aliases
// the Sim's buffer; Protocol implementations must not retain it beyond the
// call (see Protocol).
func (s *Sim) stepNode(v int) Action {
	var rcv *Message
	if s.sets[s.cur][v] {
		rcv = &s.msgs[s.cur][v]
	}
	if np := s.noise[v]; np != nil {
		return np.StepNoise(rcv, s.busys[s.cur][v])
	}
	return s.protos[v].Step(rcv)
}

// resolvePull computes what node v hears this round by scanning v's
// neighbourhood.
func (s *Sim) resolvePull(csr *graph.CSR, v int) {
	nx := 1 - s.cur
	s.sets[nx][v] = false
	s.busys[nx][v] = false
	if s.actions[v].Transmit || (s.faulted && s.effects[v]&faults.Down != 0) {
		return // transmitters and radio-off nodes hear nothing
	}
	count := 0
	var sender int32 = -1
	for _, w := range csr.Neighbors(v) {
		if s.actions[w].Transmit && !s.dropped[w] {
			count++
			if count > 1 {
				break
			}
			sender = w
		}
	}
	s.busys[nx][v] = count >= 1
	switch {
	case count == 1:
		s.msgs[nx][v] = s.actions[sender].Msg
		s.sets[nx][v] = true
	case count > 1:
		s.collisions[v]++
	}
}
