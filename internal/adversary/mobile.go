package adversary

import (
	"mtsim/internal/eaves"
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Mobile is a single eavesdropper that moves: every Interval it abandons
// its current vantage point and taps the next host on its tour, modelling
// an attacker that physically roams the field re-tapping whatever node it
// is near. Only the currently active vantage point collects; the union
// accumulates across the whole tour.
type Mobile struct {
	hosts    []*node.Node
	interval sim.Duration

	active  int // index into hosts of the current vantage point
	perHost []Member
	union   map[uint64]bool
	stream  eaves.StreamTracker
	frames  uint64
}

// NewMobile attaches a mobile eavesdropper touring the given hosts in a
// random order (drawn from rng; nil keeps the given order), re-tapping
// every interval. The tour wraps around when it reaches the end.
func NewMobile(hosts []*node.Node, interval sim.Duration, rng *sim.RNG) *Mobile {
	if rng != nil {
		perm := rng.Perm(len(hosts))
		shuffled := make([]*node.Node, len(hosts))
		for i, j := range perm {
			shuffled[i] = hosts[j]
		}
		hosts = shuffled
	}
	m := &Mobile{
		hosts:    hosts,
		interval: interval,
		perHost:  make([]Member, len(hosts)),
		union:    make(map[uint64]bool),
	}
	for i, h := range hosts {
		m.perHost[i].Node = h.ID()
		idx := i
		h.AddTap(func(f *packet.Frame) { m.tap(idx, f) })
	}
	hosts[0].Scheduler().After(interval, m, 0)
	return m
}

// Run implements sim.Task: move on to the next host of the tour.
func (m *Mobile) Run(int) {
	m.active = (m.active + 1) % len(m.hosts)
	m.hosts[0].Scheduler().After(m.interval, m, 0)
}

func (m *Mobile) tap(host int, f *packet.Frame) {
	if host != m.active || !eaves.Counts(f) {
		return
	}
	m.frames++
	m.perHost[host].Frames++
	id := f.Payload.DataID
	if !m.union[id] {
		m.union[id] = true
		m.stream.Note(id)
		m.perHost[host].Distinct++
	}
}

// Active returns the node currently tapped (tests, demos).
func (m *Mobile) Active() packet.NodeID { return m.hosts[m.active].ID() }

// Model implements Adversary.
func (m *Mobile) Model() string { return ModelMobile }

// Members implements Adversary: per-visited-host accounting in tour order.
// Distinct here counts payloads first heard at that host, so members sum
// exactly to the union.
func (m *Mobile) Members() []Member {
	return append([]Member(nil), m.perHost...)
}

// Distinct implements Adversary.
func (m *Mobile) Distinct() uint64 { return uint64(len(m.union)) }

// Frames implements Adversary.
func (m *Mobile) Frames() uint64 { return m.frames }

// Ratio implements Adversary.
func (m *Mobile) Ratio(pr uint64) float64 { return ratio(m.Distinct(), pr) }

// Dropped implements Adversary: mobile eavesdropping is passive.
func (m *Mobile) Dropped() uint64 { return 0 }

// Attracted implements Adversary: mobile eavesdropping is passive.
func (m *Mobile) Attracted() uint64 { return 0 }

// Contiguity implements Adversary over the whole-tour union.
func (m *Mobile) Contiguity() eaves.ContigStats { return eaves.Stats(m.union, &m.stream) }

var _ Adversary = (*Mobile)(nil)
