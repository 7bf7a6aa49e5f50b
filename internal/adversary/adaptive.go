package adversary

import (
	"mtsim/internal/eaves"
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Adaptive is a single eavesdropper that re-taps toward the traffic: like
// Mobile it holds one active vantage point among K candidate hosts, but
// instead of touring blindly it monitors channel activity at every
// candidate and, every Interval, moves to whichever candidate overheard
// the most data frames since the last move. Against a dispersing
// multipath protocol this chases the busiest path; against shuffling it
// chases wherever the buffered bursts land. It collects only at the
// active vantage point — the others are passive activity counters
// (an attacker can measure channel occupancy at a position it is not
// exfiltrating from).
//
// Determinism: the candidate order (the tie-break and fallback tour) is
// the ONLY randomness — exactly one rng.Perm(len(hosts)) at construction,
// zero draws afterwards. The re-tap decision itself is a pure argmax over
// observed counts (ties to the earlier tour position), so same-seed runs
// re-tap identically. TestAdaptiveRNGDraws pins this draw count.
type Adaptive struct {
	hosts    []*node.Node
	interval sim.Duration

	active  int // index into hosts of the current vantage point
	recent  []uint64
	moves   uint64
	perHost []Member
	union   map[uint64]bool
	stream  eaves.StreamTracker
	frames  uint64
}

// NewAdaptive attaches an adaptive eavesdropper over the given candidate
// hosts, re-evaluating its vantage point every interval. rng orders the
// candidates (nil keeps the given order); it is consulted exactly once,
// for the Perm, and never again.
func NewAdaptive(hosts []*node.Node, interval sim.Duration, rng *sim.RNG) *Adaptive {
	if rng != nil {
		perm := rng.Perm(len(hosts))
		shuffled := make([]*node.Node, len(hosts))
		for i, j := range perm {
			shuffled[i] = hosts[j]
		}
		hosts = shuffled
	}
	a := &Adaptive{
		hosts:    hosts,
		interval: interval,
		recent:   make([]uint64, len(hosts)),
		perHost:  make([]Member, len(hosts)),
		union:    make(map[uint64]bool),
	}
	for i, h := range hosts {
		a.perHost[i].Node = h.ID()
		idx := i
		h.AddTap(func(f *packet.Frame) { a.tap(idx, f) })
	}
	hosts[0].Scheduler().After(interval, a, 0)
	return a
}

// Run implements sim.Task: re-tap, then wait for the next decision.
func (a *Adaptive) Run(int) {
	a.retap()
	a.hosts[0].Scheduler().After(a.interval, a, 0)
}

// retap moves the active vantage point to the candidate that overheard
// the most data frames since the previous move (ties and an all-quiet
// field fall back to the next tour position), then resets the counters so
// the next decision reflects only fresh evidence.
func (a *Adaptive) retap() {
	a.moves++
	best, bestCount := (a.active+1)%len(a.hosts), uint64(0)
	for i, c := range a.recent {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	a.active = best
	for i := range a.recent {
		a.recent[i] = 0
	}
}

func (a *Adaptive) tap(host int, f *packet.Frame) {
	if !eaves.Counts(f) {
		return
	}
	a.recent[host]++
	if host != a.active {
		return
	}
	a.frames++
	a.perHost[host].Frames++
	id := f.Payload.DataID
	if !a.union[id] {
		a.union[id] = true
		a.stream.Note(id)
		a.perHost[host].Distinct++
	}
}

// Active returns the node currently tapped (tests, demos).
func (a *Adaptive) Active() packet.NodeID { return a.hosts[a.active].ID() }

// Moves returns how many re-tap decisions have fired (tests).
func (a *Adaptive) Moves() uint64 { return a.moves }

// Model implements Adversary.
func (a *Adaptive) Model() string { return ModelAdaptive }

// Members implements Adversary: per-candidate accounting in tour order.
// Distinct counts payloads first heard at that host while it was active,
// so members sum exactly to the union.
func (a *Adaptive) Members() []Member {
	return append([]Member(nil), a.perHost...)
}

// Distinct implements Adversary.
func (a *Adaptive) Distinct() uint64 { return uint64(len(a.union)) }

// Frames implements Adversary.
func (a *Adaptive) Frames() uint64 { return a.frames }

// Ratio implements Adversary.
func (a *Adaptive) Ratio(pr uint64) float64 { return ratio(a.Distinct(), pr) }

// Dropped implements Adversary: adaptive eavesdropping is passive.
func (a *Adaptive) Dropped() uint64 { return 0 }

// Attracted implements Adversary: it chases traffic, it does not divert it.
func (a *Adaptive) Attracted() uint64 { return 0 }

// Contiguity implements Adversary over the whole-run union.
func (a *Adaptive) Contiguity() eaves.ContigStats { return eaves.Stats(a.union, &a.stream) }

var _ Adversary = (*Adaptive)(nil)
