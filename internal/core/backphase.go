package core

import (
	"radiobcast/internal/radio"
)

// backPhase is one acknowledged-broadcast phase of algorithm Barb (§4.2):
// a Back-style state machine parameterised by the message kind that carries
// the phase's broadcast payload, whether the x3 node initiates the
// acknowledgement, and whether timestamps are attached (phase 3 runs plain
// B, without them). All three phase machines of a node share the node's
// local clock; a machine is inert until its origin starts it or until it
// receives its phase's broadcast message.
type backPhase struct {
	phase      uint8
	kind       radio.Kind
	label      Label
	isOrigin   bool
	zAck       bool // x3 node starts the ack chain in this phase
	timestamps bool

	started bool   // origin only: first transmission done
	payload string // payload being disseminated
	aux     int    // Aux value attached to the broadcast (phase 2 carries T)

	haveMsg       bool
	informedRound int // timestamp of first reception (phase-local round)
	firstRecv     int // node-local round of first reception
	lastDataTx    int // node-local round of last broadcast-kind transmission
	stayAt        int // node-local round of last stay reception
	stayTS        int
	ackAt         int // node-local round of last ack reception
	ackTS         int
	ackAux        int
	ackPayload    string
	transmitRds   map[int]bool // timestamps of own broadcast transmissions (nil until the first)

	originAckHeard bool // origin only: the phase's ack chain arrived
	originAckRound int
	originAckAux   int
	originAckMsg   string
}

func newBackPhase(phase uint8, kind radio.Kind, label Label, isOrigin, zAck, timestamps bool) backPhase {
	return backPhase{
		phase: phase, kind: kind, label: label,
		isOrigin: isOrigin, zAck: zAck, timestamps: timestamps,
		informedRound: -1, firstRecv: -1, lastDataTx: -1,
		stayAt: -1, ackAt: -1,
	}
}

// markTx records a timestamped broadcast transmission; the map is
// allocated on first write (most nodes of a phase never transmit, and a
// nil map reads as false).
func (p *backPhase) markTx(ts int) {
	if p.transmitRds == nil {
		p.transmitRds = make(map[int]bool, 4)
	}
	p.transmitRds[ts] = true
}

// start performs the origin's first transmission, at node-local round r.
func (p *backPhase) start(r int, payload string, aux int) radio.Action {
	p.started = true
	p.payload = payload
	p.aux = aux
	p.lastDataTx = r
	ts := 0
	if p.timestamps {
		ts = 1
		p.markTx(1)
	}
	return radio.Send(radio.Message{Kind: p.kind, Payload: payload, TS: ts, Aux: aux, Phase: p.phase})
}

// receive processes a message of this phase heard in round recvRound.
func (p *backPhase) receive(m *radio.Message, recvRound int) {
	switch m.Kind {
	case p.kind:
		if !p.haveMsg && !p.isOrigin {
			p.haveMsg = true
			p.payload = m.Payload
			p.aux = m.Aux
			p.informedRound = m.TS
			p.firstRecv = recvRound
		}
	case radio.KindStay:
		p.stayAt = recvRound
		p.stayTS = m.TS
	case radio.KindAck:
		if p.isOrigin {
			if !p.originAckHeard {
				p.originAckHeard = true
				p.originAckRound = recvRound
				p.originAckAux = m.Aux
				p.originAckMsg = m.Payload
			}
		} else {
			p.ackAt = recvRound
			p.ackTS = m.TS
			p.ackAux = m.Aux
			p.ackPayload = m.Payload
		}
	}
}

// action evaluates the Back branches for node-local round r. Machines that
// return Listen have no side effects.
func (p *backPhase) action(r int) radio.Action {
	ts := func(v int) int {
		if p.timestamps {
			return v
		}
		return 0
	}
	switch {
	case p.isOrigin:
		// The origin's only recurring duty is the stay-triggered retransmit.
		if p.started && p.stayAt == r-1 && p.lastDataTx == r-2 {
			p.lastDataTx = r
			t := ts(p.stayTS + 1)
			if t > 0 {
				p.markTx(t)
			}
			return radio.Send(radio.Message{Kind: p.kind, Payload: p.payload, TS: t, Aux: p.aux, Phase: p.phase})
		}
		return radio.Listen

	case !p.haveMsg:
		return radio.Listen

	case p.firstRecv == r-2:
		if p.label.X1() {
			p.lastDataTx = r
			t := ts(p.informedRound + 2)
			if t > 0 {
				p.markTx(t)
			}
			return radio.Send(radio.Message{Kind: p.kind, Payload: p.payload, TS: t, Aux: p.aux, Phase: p.phase})
		}
		return radio.Listen

	case p.firstRecv == r-1:
		if p.label.X3() && p.zAck {
			// z starts the ack; in phase 1 it appends T = its own
			// informedRound so the coordinator learns it (§4.2 step 1).
			return radio.Send(radio.Message{Kind: radio.KindAck, TS: p.informedRound, Aux: p.informedRound, Phase: p.phase})
		}
		if p.label.X2() {
			return radio.Send(radio.Message{Kind: radio.KindStay, TS: ts(p.informedRound + 1), Phase: p.phase})
		}
		return radio.Listen

	case p.stayAt == r-1 && p.lastDataTx == r-2:
		p.lastDataTx = r
		t := ts(p.stayTS + 1)
		if t > 0 {
			p.markTx(t)
		}
		return radio.Send(radio.Message{Kind: p.kind, Payload: p.payload, TS: t, Aux: p.aux, Phase: p.phase})

	case p.ackAt == r-1 && p.transmitRds[p.ackTS]:
		// Relay the ack, preserving the piggybacked Aux/payload (§4.2).
		return radio.Send(radio.Message{Kind: radio.KindAck, TS: p.informedRound, Aux: p.ackAux, Payload: p.ackPayload, Phase: p.phase})

	default:
		return radio.Listen
	}
}
