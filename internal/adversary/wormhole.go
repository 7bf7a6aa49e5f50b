package adversary

import (
	"mtsim/internal/eaves"
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// TunnelDelay is the wormhole's out-of-band latency: far below one radio
// hop's jitter + contention, so tunnelled route requests always beat the
// legitimate multi-hop flood and the phantom link looks like the best
// path to every discovery protocol.
const TunnelDelay = 1 * sim.Millisecond

// Wormhole is a pair of colluding relays joined by an out-of-band tunnel
// (AODVSEC's wormhole attack). Each endpoint relays honestly on the air,
// but additionally teleports its outgoing route-discovery control traffic
// to the far endpoint: a tunnelled RREQ re-broadcast arrives at the peer
// carrying a record that ends at the near endpoint, so when the peer
// processes and re-floods it the discovered route contains the phantom
// one-hop link near→far — typically far shorter than any real path, so
// sources prefer it. Replies and other unicast control addressed across
// the phantom link are tunnelled too (the endpoints are usually out of
// radio range of each other). Data is NOT tunnelled: packets routed into
// the wormhole die at the near endpoint when its MAC cannot reach the
// phantom next hop — the classic wormhole-then-drop denial, observable by
// upstream watchdogs precisely because the DATA frame never airs.
//
// The tunnel works through the node.RouteFilter hook, so the data-plane
// arena contract is untouched: each tunnelled clone is delivered to the
// peer exactly once (borrowed, per the receive convention) and released
// exactly once, and Retire drains clones still in flight when a run ends.
type Wormhole struct {
	ends    [2]*node.Node
	members []*eaves.Eavesdropper
	union   map[uint64]bool
	stream  eaves.StreamTracker

	pend       []*tunnelled
	attracted  uint64
	tunnelledN uint64
}

// tunnelled is one control packet in tunnel flight: the wormhole owns it
// until the far endpoint's Deliver runs (or Retire drains it).
type tunnelled struct {
	w    *Wormhole
	from int // index of the sending endpoint
	p    *packet.Packet
	h    sim.TaskHandle
}

// Run implements sim.Task: hand the packet to the far endpoint as if it
// had arrived from the near one, then release it — receivers borrow.
func (t *tunnelled) Run(int) {
	w, from, p := t.w, t.from, t.p
	w.forget(t)
	dst := w.ends[1-from]
	dst.Deliver(p, w.ends[from].ID())
	dst.Arena().Release(p)
}

func (w *Wormhole) forget(t *tunnelled) {
	for i, q := range w.pend {
		if q == t {
			last := len(w.pend) - 1
			w.pend[i] = w.pend[last]
			w.pend[last] = nil
			w.pend = w.pend[:last]
			break
		}
	}
}

// endpointFilter adapts one endpoint to node.RouteFilter.
type endpointFilter struct {
	w   *Wormhole
	idx int
}

// FilterRoute implements node.RouteFilter. Broadcast control (RREQ
// floods) is cloned into the tunnel and still aired locally — the
// endpoint keeps behaving like an honest relay. Unicast control whose
// next hop is the far endpoint exists only because of the phantom link,
// so it is claimed outright and tunnelled; letting the MAC try would just
// burn retries against an out-of-range peer.
func (f *endpointFilter) FilterRoute(p *packet.Packet, next packet.NodeID) bool {
	return f.w.filter(f.idx, p, next)
}

// RouteJitter implements node.RouteFilter: wormholes do not touch timing.
func (f *endpointFilter) RouteJitter(_ *packet.Packet, d sim.Duration) sim.Duration { return d }

// NewWormhole joins two compromised relays with a control-plane tunnel.
// Both endpoints also collect whatever data they overhear (insider taps),
// and count the data frames neighbours address to them — the attracted
// traffic the phantom link pulls in.
func NewWormhole(a, b *node.Node) *Wormhole {
	w := &Wormhole{ends: [2]*node.Node{a, b}, union: make(map[uint64]bool)}
	for i, h := range w.ends {
		w.members = append(w.members, eaves.AttachShared(h, w.union, &w.stream))
		self := h.ID()
		h.AddTap(func(fr *packet.Frame) {
			if fr.Kind == packet.FrameData && fr.TxTo == self && !fr.Retry &&
				fr.Payload != nil && fr.Payload.Kind == packet.KindData {
				w.attracted++
			}
		})
		h.InstallRouteFilter(&endpointFilter{w: w, idx: i})
	}
	return w
}

func (w *Wormhole) filter(from int, p *packet.Packet, next packet.NodeID) bool {
	src, dst := w.ends[from], w.ends[1-from]
	switch next {
	case packet.Broadcast:
		clone := src.Arena().Copy(p, src.UIDs())
		w.tunnel(from, clone)
		return false // the original still floods locally
	case dst.ID():
		w.tunnel(from, p)
		return true // claimed: crosses the phantom link out of band
	default:
		return false
	}
}

func (w *Wormhole) tunnel(from int, p *packet.Packet) {
	t := &tunnelled{w: w, from: from, p: p}
	t.h = w.ends[from].Scheduler().After(TunnelDelay, t, 0)
	w.pend = append(w.pend, t)
	w.tunnelledN++
}

// Retire drains the tunnel: clones still in flight when the run ends are
// cancelled and handed back to the arena, closing the leak-accounting
// books (mirrors node.Retire's pending-send drainage).
func (w *Wormhole) Retire() {
	sched := w.ends[0].Scheduler()
	for len(w.pend) > 0 {
		t := w.pend[0]
		sched.Cancel(t.h)
		w.ends[t.from].Arena().Release(t.p)
		w.forget(t)
	}
}

// Tunnelled returns how many control packets entered the tunnel (tests).
func (w *Wormhole) Tunnelled() uint64 { return w.tunnelledN }

// Model implements Adversary.
func (w *Wormhole) Model() string { return ModelWormhole }

// Members implements Adversary.
func (w *Wormhole) Members() []Member {
	out := make([]Member, len(w.members))
	for i, m := range w.members {
		out[i] = Member{Node: m.ID, Frames: m.Frames, Distinct: m.Distinct()}
	}
	return out
}

// Distinct implements Adversary: the union Pe over both endpoints.
func (w *Wormhole) Distinct() uint64 { return uint64(len(w.union)) }

// Frames implements Adversary.
func (w *Wormhole) Frames() uint64 {
	var total uint64
	for _, m := range w.members {
		total += m.Frames
	}
	return total
}

// Ratio implements Adversary.
func (w *Wormhole) Ratio(pr uint64) float64 { return ratio(w.Distinct(), pr) }

// Dropped implements Adversary: the wormhole never touches data packets
// itself — attracted data dies on the phantom link by radio physics, and
// is accounted as MAC loss, not an adversary drop.
func (w *Wormhole) Dropped() uint64 { return 0 }

// Attracted implements Adversary.
func (w *Wormhole) Attracted() uint64 { return w.attracted }

// Contiguity implements Adversary over the endpoints' pooled union.
func (w *Wormhole) Contiguity() eaves.ContigStats { return eaves.Stats(w.union, &w.stream) }

var _ Adversary = (*Wormhole)(nil)
