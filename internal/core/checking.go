package core

import (
	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Run implements sim.Task for the router's checking rounds (arg is the
// source, ≥ 0) and deferred path switches (arg is ^dst, < 0).
func (r *Router) Run(arg int) {
	if arg >= 0 {
		r.checkRound(packet.NodeID(arg))
		return
	}
	// The deferred switch commits: re-score at fire time, since usage
	// counts may have moved during the margin.
	ss := r.src[packet.NodeID(^arg)]
	ss.pendingSwitch = sim.TaskHandle{}
	r.switchTo(ss, r.switchTarget(ss, ss.nominee))
}

// ensureChecking starts the destination's periodic checking timer for the
// session with src, if not already running (§III-D).
func (r *Router) ensureChecking(src packet.NodeID) {
	ds := r.dst[src]
	if ds == nil || ds.timer.Pending() {
		return
	}
	// Jitter the first round so concurrent sessions do not synchronise.
	delay := r.cfg.CheckPeriod + r.env.RNG().Jitter(r.cfg.CheckPeriod/4)
	ds.timer = r.env.Scheduler().After(delay, r, int(src))
}

// checkRound sends one checking packet along every live stored path
// concurrently, then re-arms the timer. "Whenever the five checking packets
// are sent out concurrently, the checking packet ID is increased by one."
func (r *Router) checkRound(src packet.NodeID) {
	ds := r.dst[src]
	if ds == nil {
		return
	}
	ds.timer = sim.TaskHandle{}
	// Stop checking for sessions that have gone quiet.
	if ds.lastData > 0 && r.env.Scheduler().Now().Sub(ds.lastData) > r.cfg.SessionIdle {
		return
	}
	r.checkID++
	alive := 0
	for _, sp := range ds.paths {
		if !sp.alive || len(sp.route) < 2 {
			continue
		}
		alive++
		r.sendCheck(src, sp)
	}
	if alive == 0 {
		// No usable paths left: checking pauses; a new RREQ flood from
		// the source will repopulate the set and restart it.
		return
	}
	ds.timer = r.env.Scheduler().After(r.cfg.CheckPeriod, r, int(src))
}

func (r *Router) sendCheck(src packet.NodeID, sp *storedPath) {
	travel := reverseRoute(sp.route) // D … S
	h := &Check{
		From:    r.env.ID(),
		To:      src,
		CheckID: r.checkID,
		PathID:  sp.id,
		Route:   travel,
	}
	// SetSourceRoute copies travel into arena-owned storage: the Check
	// header keeps (and shares, across per-hop copies) the original
	// slice, so the route must not be recycled when this packet dies.
	p := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindCheck,
		Size:    checkBase + addrSize*len(travel),
		Src:     r.env.ID(),
		Dst:     src,
		TTL:     routing.DefaultTTL,
		Routing: h,
		SRIndex: 0,
	})
	r.ar.SetSourceRoute(p, travel)
	r.Stats.ChecksSent++
	r.env.SendMac(p, travel[1])
}

func (r *Router) handleCheck(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*Check)
	self := r.env.ID()

	if p.Dst == self {
		// Source side: this path is alive; the first check of a round to
		// arrive marks the currently fastest path (§III-E).
		ss := r.src[h.From]
		if ss == nil {
			ss = r.newSrcState()
			r.src[h.From] = ss
		}
		now := r.env.Scheduler().Now()
		sp := ss.paths[h.PathID]
		if sp == nil {
			sp = &srcPath{}
			ss.paths[h.PathID] = sp
		}
		sp.next = from
		sp.lastCheckID = h.CheckID
		sp.lastHeard = now
		sp.alive = true
		ss.haveRoute = true

		if r.cfg.SwitchOnCheck {
			r.considerSwitch(h.From, ss, h.CheckID, h.PathID)
		}
		return
	}
	// Intermediate: cache the checking packet ID as the entry ID toward
	// the checking destination — this constructs the forward path
	// (Fig. 4) — then relay along the source route.
	r.setFwd(h.From, h.PathID, from, h.CheckID)
	r.forwardSourceRouted(p)
}

// considerSwitch applies the §III-E best-route rule with a grace margin:
// the first checking packet of a round nominates its path; if that path is
// already current, the round is settled. Otherwise the switch commits
// after SwitchMargin unless the current path's own checking packet shows
// up in time, in which case the current path is kept. ss is r.src[dst].
func (r *Router) considerSwitch(dst packet.NodeID, ss *srcState, checkID uint32, pathID int) {
	if routing.SeqNewer(checkID, ss.lastSwitchRound) {
		// First arrival of a new round.
		ss.lastSwitchRound = checkID
		r.env.Scheduler().Cancel(ss.pendingSwitch)
		ss.pendingSwitch = sim.TaskHandle{}
		if pathID == ss.current {
			// The current path won the race outright; the aware policy
			// may still move off it when its first hop has grown
			// over-exposed (usage skew beats speed by ≥ AwarePenalty).
			if tgt := r.switchTarget(ss, pathID); tgt != pathID {
				r.switchTo(ss, tgt)
			}
			return
		}
		if r.cfg.SwitchMargin <= 0 {
			r.switchTo(ss, r.switchTarget(ss, pathID))
			return
		}
		ss.nominee = pathID
		ss.pendingSwitch = r.env.Scheduler().After(r.cfg.SwitchMargin, r, ^int(dst))
		return
	}
	if checkID == ss.lastSwitchRound && pathID == ss.current && ss.pendingSwitch.Pending() {
		// The current path answered within the margin: keep it.
		r.env.Scheduler().Cancel(ss.pendingSwitch)
		ss.pendingSwitch = sim.TaskHandle{}
	}
}

func (r *Router) switchTo(ss *srcState, pathID int) {
	sp := ss.paths[pathID]
	if !r.usable(sp) {
		return
	}
	if ss.current != pathID {
		r.Stats.Switches++
	}
	ss.current = pathID
}

// failCheck is invoked when the MAC cannot forward a checking packet: a
// checking-error packet returns to the destination along the part of the
// path already traversed, and the destination deletes the path (§III-D).
func (r *Router) failCheck(p *packet.Packet) {
	h := p.Routing.(*Check)
	self := r.env.ID()
	if self == h.From {
		// First hop failed; delete directly.
		r.deletePath(h.From, h.To, h.PathID)
		return
	}
	idx := -1
	for i, n := range h.Route {
		if n == self {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return
	}
	back := reverseRoute(h.Route[:idx+1]) // self … D
	errp := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindCheckErr,
		Size:    checkErrSize,
		Src:     self,
		Dst:     h.From,
		TTL:     routing.DefaultTTL,
		Routing: &CheckErr{PathID: h.PathID, CheckID: h.CheckID},
		SRIndex: 0,
	})
	r.ar.SetSourceRoute(errp, back)
	r.Stats.CheckErrs++
	r.env.SendMac(errp, back[1])
}

func (r *Router) handleCheckErr(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*CheckErr)
	if p.Dst == r.env.ID() {
		// We are the checking destination: delete the failed path.
		for src, ds := range r.dst {
			for _, sp := range ds.paths {
				if sp.id == h.PathID && sp.alive {
					sp.alive = false
					r.Stats.PathsDeleted++
					_ = src
					return
				}
			}
		}
		return
	}
	r.forwardSourceRouted(p)
}

// deletePath marks a stored path dead at this (destination) node.
func (r *Router) deletePath(self, src packet.NodeID, pathID int) {
	ds := r.dst[src]
	if ds == nil {
		return
	}
	for _, sp := range ds.paths {
		if sp.id == pathID && sp.alive {
			sp.alive = false
			r.Stats.PathsDeleted++
			return
		}
	}
}
