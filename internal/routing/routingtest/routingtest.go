// Package routingtest provides a fake routing.Env for white-box protocol
// unit tests: it records MAC sends and local deliveries and lets tests
// shuttle packets between protocol instances by hand, without a radio
// stack. Integration tests over the real PHY/MAC live in internal/scenario.
package routingtest

import (
	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Sent is one recorded link-layer transmission.
type Sent struct {
	P    *packet.Packet
	Next packet.NodeID
}

// Env is a recording fake of routing.Env.
type Env struct {
	Node  packet.NodeID
	Sched *sim.Scheduler
	Rng   *sim.RNG
	Uids  *packet.UIDSource
	// Pool, when set, is handed to protocols as the environment's packet
	// arena; nil (the default) means plain allocation everywhere.
	Pool *packet.Arena

	Outbox    []Sent
	Delivered []*packet.Packet
	Relayed   []*packet.Packet
	Dropped   []string
}

// NewEnv creates a fake environment for the given node ID. Multiple Envs
// may share a scheduler and UID source to emulate a network.
func NewEnv(id packet.NodeID, sched *sim.Scheduler, uids *packet.UIDSource) *Env {
	return &Env{
		Node:  id,
		Sched: sched,
		Rng:   sim.NewRNG(sim.DeriveSeed(42, "env")).Derive(string(rune(id))),
		Uids:  uids,
	}
}

// ID implements routing.Env.
func (e *Env) ID() packet.NodeID { return e.Node }

// Scheduler implements routing.Env.
func (e *Env) Scheduler() *sim.Scheduler { return e.Sched }

// RNG implements routing.Env.
func (e *Env) RNG() *sim.RNG { return e.Rng }

// UIDs implements routing.Env.
func (e *Env) UIDs() *packet.UIDSource { return e.Uids }

// Arena implements routing.ArenaCarrier.
func (e *Env) Arena() *packet.Arena { return e.Pool }

// SendMac implements routing.Env by recording the transmission.
func (e *Env) SendMac(p *packet.Packet, next packet.NodeID) {
	e.Outbox = append(e.Outbox, Sent{P: p, Next: next})
}

// SendMacAfter implements routing.Env: the send is recorded when the
// shared scheduler reaches now+d.
func (e *Env) SendMacAfter(d sim.Duration, p *packet.Packet, next packet.NodeID) {
	e.Sched.After(d, &delayedSend{e: e, s: Sent{P: p, Next: next}}, 0)
}

// delayedSend is the Task of one SendMacAfter.
type delayedSend struct {
	e *Env
	s Sent
}

// Run implements sim.Task.
func (d *delayedSend) Run(int) { d.e.SendMac(d.s.P, d.s.Next) }

// DropQueued implements routing.Env (the fake has no queue).
func (e *Env) DropQueued(func(p *packet.Packet, next packet.NodeID) bool) int { return 0 }

// DeliverLocal implements routing.Env.
func (e *Env) DeliverLocal(p *packet.Packet, _ packet.NodeID) {
	e.Delivered = append(e.Delivered, p)
}

// NotifyRelay implements routing.Env.
func (e *Env) NotifyRelay(p *packet.Packet) { e.Relayed = append(e.Relayed, p) }

// NotifyDrop implements routing.Env.
func (e *Env) NotifyDrop(_ *packet.Packet, reason string) {
	e.Dropped = append(e.Dropped, reason)
}

// TakeOutbox returns and clears the recorded transmissions.
func (e *Env) TakeOutbox() []Sent {
	out := e.Outbox
	e.Outbox = nil
	return out
}

var _ routing.Env = (*Env)(nil)
