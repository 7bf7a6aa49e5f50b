package core

import (
	"sort"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// handleData forwards transport packets hop by hop along the entries that
// RREPs installed and checking packets keep refreshing. The packet's PathID
// pins it to one loop-free path; if that path's entry is gone, the freshest
// live entry toward the destination is used instead (and the PathID updated
// so downstream hops stay consistent).
func (r *Router) handleData(p *packet.Packet, from packet.NodeID) {
	self := r.env.ID()
	if p.Dst == self {
		r.noteDataArrival(p)
		r.env.DeliverLocal(p, from)
		return
	}
	if p.TTL <= 1 {
		r.env.NotifyDrop(p, "ttl")
		return
	}
	// Return traffic (TCP ACKs) is source-routed; relay it directly.
	if p.SourceRoute != nil {
		if p.Kind == packet.KindData {
			r.env.NotifyRelay(p)
		}
		r.forwardSourceRouted(p)
		return
	}
	next, chosen, ok := r.liveFwd(p.Dst, p.PathID, p.Trail)
	if !ok {
		r.env.NotifyDrop(p, "no-route")
		r.sendRERR(p)
		return
	}
	if p.Kind == packet.KindData {
		r.env.NotifyRelay(p)
	}
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.TTL--
	fwd.PathID = chosen
	fwd.Trail = append(fwd.Trail, self)
	r.env.SendMac(fwd, next)
}

// noteDataArrival updates destination-side session state used by the
// checking timer and by return-traffic path choice.
func (r *Router) noteDataArrival(p *packet.Packet) {
	src := p.Src
	ds := r.dst[src]
	if ds == nil {
		return
	}
	ds.lastData = r.env.Scheduler().Now()
	ds.lastDataPath = p.PathID
	if !ds.timer.Pending() {
		// Data is flowing again after an idle pause: resume checking.
		r.ensureChecking(src)
	}
}

// sendRERR returns a route error to the packet's source along the reversed
// trail the packet actually travelled ("the node generates a route error
// to its upstream node until it reaches the source node", §III-E).
func (r *Router) sendRERR(p *packet.Packet) {
	self := r.env.ID()
	if p.Src == self {
		return
	}
	if len(p.Trail) == 0 {
		return
	}
	// The trail may or may not already end at this node, depending on
	// whether the failure happened before (no-route) or after (MAC
	// feedback on the forwarded copy) we appended ourselves.
	back := make([]packet.NodeID, 0, len(p.Trail)+1)
	if p.Trail[len(p.Trail)-1] != self {
		back = append(back, self)
	}
	for i := len(p.Trail) - 1; i >= 0; i-- {
		back = append(back, p.Trail[i])
	}
	if hasLoop(back) || len(back) < 2 || back[len(back)-1] != p.Src {
		return
	}
	errp := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindRERR,
		Size:    rerrSize,
		Src:     self,
		Dst:     p.Src,
		TTL:     routing.DefaultTTL,
		Routing: &RERR{Dst: p.Dst, PathID: p.PathID},
		SRIndex: 0,
	})
	r.ar.SetSourceRoute(errp, back)
	r.Stats.RERRsSent++
	r.env.SendMac(errp, back[1])
}

func (r *Router) handleRERR(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RERR)
	if p.Dst != r.env.ID() {
		r.forwardSourceRouted(p)
		return
	}
	// Source: the reported path is dead; fail over to the freshest other
	// live path or re-discover (§III-E).
	r.failPath(h.Dst, h.PathID)
}

// failPath marks a source-side path dead and switches or re-discovers.
func (r *Router) failPath(dst packet.NodeID, pathID int) {
	ss := r.src[dst]
	if ss == nil {
		return
	}
	if sp := ss.paths[pathID]; sp != nil {
		sp.alive = false
	}
	if ss.current != pathID && ss.haveRoute {
		if cur := ss.paths[ss.current]; r.usable(cur) {
			return // current route unaffected
		}
	}
	// Choose the most recently heard usable alternative. Ties at the
	// freshest lastHeard are the rule, not the exception — one checking
	// round's packets come back within the same few microseconds — and the
	// tied paths are exactly as fresh as each other: an equal-cost set. The
	// ECMP hash picks among them (keyed by destination under this node's
	// seed), so concurrent sessions failing over at the same instant spread
	// across the tied paths instead of all piling onto the lowest path ID.
	var bestAt sim.Time
	tied := ss.scratch[:0]
	for id, sp := range ss.paths {
		if !r.usable(sp) {
			continue
		}
		switch {
		case len(tied) == 0 || sp.lastHeard > bestAt:
			bestAt = sp.lastHeard
			tied = append(tied[:0], id)
		case sp.lastHeard == bestAt:
			tied = append(tied, id)
		}
	}
	ss.scratch = tied
	if len(tied) > 0 {
		sort.Ints(tied) // map order must never leak into behaviour
		bestID := tied[r.mp.PickIndex(0, dst, len(tied))]
		if ss.current != bestID {
			r.Stats.Switches++
		}
		ss.current = bestID
		// Diversity exhausted: only one usable path remains. Launch a
		// refresh discovery in the background — the new RREQ's larger
		// broadcast ID makes the destination flush and rebuild its
		// disjoint set from current topology (§III-D) while data keeps
		// flowing on the surviving path.
		usable := 0
		for _, sp := range ss.paths {
			if r.usable(sp) {
				usable++
			}
		}
		if usable <= 1 {
			r.startDiscovery(dst)
		}
		return
	}
	ss.haveRoute = false
	r.startDiscovery(dst)
}

// LinkFailed implements routing.Protocol: MAC retry exhaustion toward
// next. Ownership of p passes back from the MAC: every branch must end
// with the packet re-sent (a fresh copy, original released), re-buffered,
// or released outright.
func (r *Router) LinkFailed(p *packet.Packet, next packet.NodeID) {
	self := r.env.ID()
	r.env.DropQueued(func(q *packet.Packet, n packet.NodeID) bool {
		return n == next && q.Dst == p.Dst
	})

	switch p.Kind {
	case packet.KindCheck:
		r.failCheck(p)
		r.ar.Release(p)
	case packet.KindRREP, packet.KindCheckErr, packet.KindRERR:
		// Control losses are absorbed: discovery retries, the next
		// checking round, or TCP's own timers recover.
		r.ar.Release(p)
	default:
		// Data or ACK.
		if p.SourceRoute != nil {
			// Destination-side return traffic: the stored path failed in
			// the return direction; mark it dead locally if we own it.
			if p.Src == self {
				r.deletePath(self, p.Dst, p.PathID)
			}
			r.ar.Release(p)
			return
		}
		if p.Src == self {
			// Our own packet failed on the first hop.
			r.failPath(p.Dst, p.PathID)
			if ss := r.src[p.Dst]; ss != nil && ss.haveRoute {
				if sp := ss.paths[ss.current]; sp != nil && sp.alive {
					q := r.ar.Copy(p, r.env.UIDs())
					q.PathID = ss.current
					r.ar.StartTrail(q, self)
					r.env.SendMac(q, sp.next)
					r.ar.Release(p)
					return
				}
			}
			r.buffer.Push(p.Dst, p)
			r.startDiscovery(p.Dst)
			return
		}
		// Transit data: invalidate the entry we just used and tell the
		// source so it switches paths. The packet itself is salvaged
		// through another live forward entry when one exists — the
		// forward paths installed by the other checking flows — which
		// keeps TCP's (possibly heavily backed-off) retransmission probe
		// alive instead of losing it one hop past the source.
		if m := r.fwd[p.Dst]; m != nil {
			if e, ok := m[p.PathID]; ok && e.next == next {
				delete(m, p.PathID)
			}
		}
		r.sendRERR(p)
		avoid := make([]packet.NodeID, 0, len(p.Trail)+1)
		avoid = append(avoid, p.Trail...)
		avoid = append(avoid, next)
		if nxt, chosen, ok := r.liveFwd(p.Dst, p.PathID, avoid); ok {
			q := r.ar.Copy(p, r.env.UIDs())
			q.PathID = chosen
			r.env.SendMac(q, nxt)
			r.ar.Release(p)
			return
		}
		r.env.NotifyDrop(p, "link-failure")
		r.ar.Release(p)
	}
}

// --- introspection for tests and tools ---

// CurrentPath returns the source's current path ID and first hop for dst.
func (r *Router) CurrentPath(dst packet.NodeID) (pathID int, next packet.NodeID, ok bool) {
	ss := r.src[dst]
	if ss == nil || !ss.haveRoute {
		return 0, 0, false
	}
	sp := ss.paths[ss.current]
	if !r.usable(sp) {
		return 0, 0, false
	}
	return ss.current, sp.next, true
}

// StoredPaths returns the live paths this node (as a destination) holds for
// the given source.
func (r *Router) StoredPaths(src packet.NodeID) [][]packet.NodeID {
	ds := r.dst[src]
	if ds == nil {
		return nil
	}
	var out [][]packet.NodeID
	for _, sp := range ds.paths {
		if sp.alive {
			out = append(out, packet.CloneRoute(sp.route))
		}
	}
	return out
}

// LivePathCount returns how many live source-side paths exist toward dst.
func (r *Router) LivePathCount(dst packet.NodeID) int {
	ss := r.src[dst]
	if ss == nil {
		return 0
	}
	n := 0
	for _, sp := range ss.paths {
		if r.usable(sp) {
			n++
		}
	}
	return n
}
