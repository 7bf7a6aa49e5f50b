// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol (Perkins, Royer & Das) as one of the paper's two baselines:
// on-demand route discovery by flooded RREQs, destination sequence numbers
// for loop freedom and freshness, hop-by-hop forwarding tables built by
// RREPs, and broadcast RERRs driven by MAC-layer link-failure feedback.
// Hello beacons are not used — link breakage detection comes from the MAC,
// matching the paper's setup (§III-E).
package aodv

import (
	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Config holds AODV parameters following draft-ietf-manet-aodv-10 (the
// paper's reference [15]) with ns-2 conventions.
type Config struct {
	ActiveRouteTimeout sim.Duration
	// RREQRetries counts full-diameter attempts after the expanding ring
	// reaches NetDiameter (RREQ_RETRIES in the draft).
	RREQRetries int
	SendBufCap  int
	SendBufAge  sim.Duration
	// AllowIntermediateReply lets intermediate nodes answer RREQs from
	// fresh-enough cached routes (standard AODV behaviour).
	AllowIntermediateReply bool

	// Expanding-ring search (draft §8.4). Disable to flood network-wide
	// immediately (ablation).
	ExpandingRing     bool
	TTLStart          int
	TTLIncrement      int
	TTLThreshold      int
	NetDiameter       int
	NodeTraversalTime sim.Duration
}

// DefaultConfig returns the parameter set used in the experiments
// (draft-10 defaults: TTL_START 1, TTL_INCREMENT 2, TTL_THRESHOLD 7,
// NET_DIAMETER 35, NODE_TRAVERSAL_TIME 40 ms, RREQ_RETRIES 2).
func DefaultConfig() Config {
	return Config{
		ActiveRouteTimeout:     10 * sim.Second,
		RREQRetries:            2,
		SendBufCap:             64,
		SendBufAge:             8 * sim.Second,
		AllowIntermediateReply: true,
		ExpandingRing:          true,
		TTLStart:               1,
		TTLIncrement:           2,
		TTLThreshold:           7,
		NetDiameter:            35,
		NodeTraversalTime:      40 * sim.Millisecond,
	}
}

// ringTraversalTime is the draft's RING_TRAVERSAL_TIME: how long to wait
// for a reply from a TTL-bounded flood (TIMEOUT_BUFFER = 2).
func (c Config) ringTraversalTime(ttl int) sim.Duration {
	return 2 * c.NodeTraversalTime * sim.Duration(ttl+2)
}

// Control packet wire sizes (bytes), matching ns-2's AODV packet formats.
const (
	rreqBytes = 48
	rrepBytes = 44
	rerrBase  = 20
	rerrPer   = 8
)

// RREQ is the route-request header.
type RREQ struct {
	Orig           packet.NodeID
	OrigSeq        uint32
	BID            uint32
	Target         packet.NodeID
	TargetSeq      uint32
	TargetSeqKnown bool
	Hops           int
}

// RREP is the route-reply header, travelling replier → originator.
type RREP struct {
	Orig      packet.NodeID // RREQ originator (discovery requester)
	Target    packet.NodeID // destination the route leads to
	TargetSeq uint32
	Hops      int // distance from the replier to Target
}

// RERR lists destinations that became unreachable through the sender.
type RERR struct {
	Unreachable []Unreachable
}

// Unreachable is one RERR entry.
type Unreachable struct {
	Dst packet.NodeID
	Seq uint32
}

type routeEntry struct {
	next     packet.NodeID
	hops     int
	seq      uint32
	validSeq bool
	valid    bool
	expiry   sim.Time
}

// discovery is one in-flight route discovery and the Task of its timeout.
type discovery struct {
	r          *Router
	ttl        int // current ring TTL
	fullFloods int // attempts at NetDiameter TTL
	timer      sim.TaskHandle
}

// Router is one node's AODV instance.
type Router struct {
	env   routing.Env
	cfg   Config
	ar    *packet.Arena       // the env's packet arena (nil: plain allocation)
	trust routing.TrustOracle // nil: legacy behaviour, bit-for-bit

	seq uint32
	bid uint32

	table   map[packet.NodeID]*routeEntry
	seen    map[rreqKey]bool
	pending map[packet.NodeID]*discovery
	buffer  *routing.SendBuffer

	// mp remembers, per destination, the next hops of route offers that
	// were exactly as fresh and exactly as short as the installed route —
	// the alternatives plain AODV throws away. On link failure a surviving
	// equal-cost next hop repairs the entry in place instead of
	// invalidating it, skipping the RERR and the rediscovery flood.
	// Candidates are NodeIDs, so they never go stale by index; freshness
	// staleness is handled by invalidating the set whenever the installed
	// route's sequence number moves.
	mp *routing.MultiPathTable

	// entryPool recycles routeEntry structs across runs of a reused
	// context (the table is cleared at recycle, not reallocated).
	entryPool []*routeEntry

	// Stats
	Discoveries uint64
	RERRsSent   uint64
	Repairs     uint64 // link failures absorbed by an equal-cost next hop
}

type rreqKey struct {
	orig packet.NodeID
	bid  uint32
}

// recycleKey identifies parked AODV routers in a routing.Recycler.
const recycleKey = "aodv"

// New creates an AODV router bound to env, reusing a recycled instance's
// state (table/seen/pending buckets, entry pool, send-buffer buckets)
// when env carries a routing.Recycler with one parked.
func New(env routing.Env, cfg Config) *Router {
	if rec := routing.RecyclerOf(env); rec != nil {
		if v := rec.Get(recycleKey); v != nil {
			r := v.(*Router)
			r.rebind(env, cfg)
			return r
		}
	}
	ar := routing.ArenaOf(env)
	return &Router{
		env:     env,
		cfg:     cfg,
		ar:      ar,
		trust:   routing.TrustOf(env),
		table:   make(map[packet.NodeID]*routeEntry),
		seen:    make(map[rreqKey]bool),
		pending: make(map[packet.NodeID]*discovery),
		mp:      routing.NewMultiPathTable(env.ID()),
		buffer: routing.NewSendBuffer(env.Scheduler(), cfg.SendBufCap, cfg.SendBufAge, ar,
			func(p *packet.Packet, reason string) { env.NotifyDrop(p, reason) }),
	}
}

// rebind points a recycled (fully reset) router at the next run's
// environment and parameters.
func (r *Router) rebind(env routing.Env, cfg Config) {
	ar := routing.ArenaOf(env)
	r.env, r.cfg, r.ar = env, cfg, ar
	r.trust = routing.TrustOf(env)
	r.mp.Rebind(env.ID())
	r.buffer.Rebind(env.Scheduler(), cfg.SendBufCap, cfg.SendBufAge, ar,
		func(p *packet.Packet, reason string) { env.NotifyDrop(p, reason) })
}

// RecycleInto implements routing.Recyclable: reset all per-run state and
// park the instance. Route entries return to the entry pool; no packets
// are released (the arena's Reset already reclaimed them).
func (r *Router) RecycleInto(rec *routing.Recycler) {
	for dst, e := range r.table {
		*e = routeEntry{}
		r.entryPool = append(r.entryPool, e)
		delete(r.table, dst)
	}
	clear(r.seen)
	clear(r.pending)
	r.buffer.Recycle()
	r.mp.Recycle()
	r.seq, r.bid = 0, 0
	r.Discoveries, r.RERRsSent, r.Repairs = 0, 0, 0
	r.env = nil
	r.trust = nil
	rec.Put(recycleKey, r)
}

// newEntry takes a zeroed routeEntry from the pool, or allocates one.
func (r *Router) newEntry() *routeEntry {
	if n := len(r.entryPool); n > 0 {
		e := r.entryPool[n-1]
		r.entryPool[n-1] = nil
		r.entryPool = r.entryPool[:n-1]
		return e
	}
	return &routeEntry{}
}

// Retire implements routing.Retirer: hand back buffered packets at run end.
func (r *Router) Retire() { r.buffer.Retire() }

// Name implements routing.Protocol.
func (r *Router) Name() string { return "AODV" }

// Start implements routing.Protocol. AODV is purely reactive; nothing to do.
func (r *Router) Start() {}

// route returns a live entry for dst, treating expired entries as invalid.
func (r *Router) route(dst packet.NodeID) *routeEntry {
	e := r.table[dst]
	if e == nil || !e.valid || e.expiry < r.env.Scheduler().Now() {
		return nil
	}
	return e
}

// touch refreshes the lifetime of a route in active use.
func (r *Router) touch(e *routeEntry) {
	exp := r.env.Scheduler().Now().Add(r.cfg.ActiveRouteTimeout)
	if exp > e.expiry {
		e.expiry = exp
	}
}

// update installs or refreshes a route if the new information is fresher
// (higher sequence number) or equally fresh but shorter — the AODV
// loop-freedom rule.
//
// With the trust defence active, an offer through a low-trust neighbour
// is inflated by the neighbour's distrust penalty before it competes, so
// equally fresh routes through clean neighbours win even at more real
// hops. Inflation only ever *increases* this node's stored (and onward
// advertised) distance, so AODV's strictly-decreasing-distance loop
// invariant is preserved.
func (r *Router) update(dst, next packet.NodeID, hops int, seq uint32, validSeq bool) *routeEntry {
	if r.trust != nil {
		hops += int(r.trust.Cost(next) + 0.5)
	}
	e := r.table[dst]
	if e == nil {
		e = r.newEntry()
		r.table[dst] = e
	}
	accept := !e.valid ||
		(validSeq && e.validSeq && routing.SeqNewer(seq, e.seq)) ||
		(validSeq && !e.validSeq) ||
		(validSeq == e.validSeq && seq == e.seq && hops < e.hops) ||
		(!validSeq && !e.validSeq)
	if !accept {
		// A rejected offer that matches the installed route's freshness and
		// length exactly is an equal-cost alternative: remember its next hop
		// for in-place repair when the installed one breaks. Equal sequence
		// number plus equal hop count preserves AODV's distance invariant,
		// so switching to it later cannot form a loop.
		if validSeq && e.validSeq && seq == e.seq && hops == e.hops && next != e.next {
			r.mp.Register(dst, int32(hops), int32(next))
		}
		return e
	}
	// Freshness moved (or the entry was dead): every remembered alternative
	// predates this sequence number and must go. An equally fresh but
	// shorter route keeps the set only notionally — Register's lower cost
	// resets it below.
	if !e.valid || !validSeq || !e.validSeq || seq != e.seq {
		r.mp.InvalidateDst(dst)
	}
	e.next = next
	e.hops = hops
	e.seq = seq
	e.validSeq = validSeq
	e.valid = true
	r.mp.Register(dst, int32(hops), int32(next))
	r.touch(e)
	return e
}

// Send implements routing.Protocol: originate an end-to-end packet.
func (r *Router) Send(p *packet.Packet) {
	if p.Dst == r.env.ID() {
		r.env.DeliverLocal(p, r.env.ID())
		r.ar.Release(p)
		return
	}
	if e := r.route(p.Dst); e != nil {
		r.touch(e)
		r.env.SendMac(p, e.next)
		return
	}
	r.buffer.Push(p.Dst, p)
	r.startDiscovery(p.Dst)
}

func (r *Router) startDiscovery(dst packet.NodeID) {
	if _, busy := r.pending[dst]; busy {
		return
	}
	d := &discovery{r: r, ttl: r.initialTTL(dst)}
	r.pending[dst] = d
	r.attempt(dst, d)
}

// initialTTL starts the expanding ring at TTL_START, or at the last known
// hop count plus TTL_INCREMENT when the route just broke (draft §8.4).
func (r *Router) initialTTL(dst packet.NodeID) int {
	if !r.cfg.ExpandingRing {
		return r.cfg.NetDiameter
	}
	ttl := r.cfg.TTLStart
	if e := r.table[dst]; e != nil && e.hops > 0 && e.hops+r.cfg.TTLIncrement < r.cfg.TTLThreshold {
		ttl = e.hops + r.cfg.TTLIncrement
	}
	return ttl
}

func (r *Router) attempt(dst packet.NodeID, d *discovery) {
	r.Discoveries++
	r.seq++
	r.bid++
	h := &RREQ{
		Orig:    r.env.ID(),
		OrigSeq: r.seq,
		BID:     r.bid,
		Target:  dst,
	}
	if e := r.table[dst]; e != nil && e.validSeq {
		h.TargetSeq = e.seq
		h.TargetSeqKnown = true
	}
	p := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindRREQ,
		Size:    rreqBytes,
		Src:     r.env.ID(),
		Dst:     dst,
		TTL:     d.ttl,
		Routing: h,
	})
	r.seen[rreqKey{h.Orig, h.BID}] = true
	r.env.SendMac(p, packet.Broadcast)

	timeout := r.cfg.ringTraversalTime(d.ttl)
	if d.ttl >= r.cfg.NetDiameter {
		// Full-diameter attempts back off exponentially (draft §8.3).
		timeout <<= d.fullFloods
	}
	d.timer = r.env.Scheduler().After(timeout, d, int(dst))
}

// Run implements sim.Task: the discovery for dst (arg) timed out.
func (d *discovery) Run(arg int) {
	r, dst := d.r, packet.NodeID(arg)
	if r.route(dst) != nil {
		delete(r.pending, dst)
		return
	}
	if d.ttl >= r.cfg.NetDiameter {
		d.fullFloods++
		if d.fullFloods > r.cfg.RREQRetries {
			delete(r.pending, dst)
			r.buffer.DropAll(dst)
			return
		}
	} else if d.ttl >= r.cfg.TTLThreshold {
		d.ttl = r.cfg.NetDiameter
	} else {
		d.ttl += r.cfg.TTLIncrement
	}
	r.attempt(dst, d)
}

// Receive implements routing.Protocol.
func (r *Router) Receive(p *packet.Packet, from packet.NodeID) {
	switch p.Kind {
	case packet.KindRREQ:
		r.handleRREQ(p, from)
	case packet.KindRREP:
		r.handleRREP(p, from)
	case packet.KindRERR:
		r.handleRERR(p, from)
	default:
		r.handleData(p, from)
	}
}

func (r *Router) handleRREQ(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREQ)
	if h.Orig == r.env.ID() {
		return
	}
	key := rreqKey{h.Orig, h.BID}
	if r.seen[key] {
		// A duplicate copy is not relayed, but it is free topology
		// intelligence: a neighbour rebroadcasting the same flood at the
		// same hop count sits at the same distance from the originator
		// as our installed reverse next hop — an equal-cost alternative
		// under exactly the invariant update's harvest uses. Duplicates
		// are where such alternatives actually surface (the first copy
		// installs the route; later copies arrive via other neighbours),
		// so without this the multipath table would hold only the
		// installed next hop. Offer it to the table only: the route
		// table, relaying decision and RNG streams are untouched.
		if e := r.route(h.Orig); e != nil && e.validSeq &&
			e.seq == h.OrigSeq && e.hops == h.Hops+1 && from != e.next {
			r.mp.Register(h.Orig, int32(e.hops), int32(from))
		}
		return
	}
	r.seen[key] = true

	// Reverse route to the originator through the neighbour we heard.
	r.update(h.Orig, from, h.Hops+1, h.OrigSeq, true)

	if h.Target == r.env.ID() {
		// AODV: the destination ensures its sequence number is at least
		// the one the requester asked about, then replies.
		if h.TargetSeqKnown && routing.SeqNewer(h.TargetSeq, r.seq) {
			r.seq = h.TargetSeq
		}
		r.seq++
		r.sendRREP(h.Orig, r.env.ID(), r.seq, 0, from)
		return
	}

	if r.cfg.AllowIntermediateReply {
		if e := r.route(h.Target); e != nil && e.validSeq &&
			(!h.TargetSeqKnown || !routing.SeqNewer(h.TargetSeq, e.seq)) {
			r.sendRREP(h.Orig, h.Target, e.seq, e.hops, from)
			return
		}
	}

	if p.TTL <= 1 {
		return
	}
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.TTL--
	nh := *h
	nh.Hops++
	fwd.Routing = &nh
	// Jitter de-synchronises neighbours that all heard the same copy.
	r.env.SendMacAfter(r.env.RNG().Jitter(routing.MaxBroadcastJitter), fwd, packet.Broadcast)
}

func (r *Router) sendRREP(orig, target packet.NodeID, targetSeq uint32, hops int, via packet.NodeID) {
	h := &RREP{Orig: orig, Target: target, TargetSeq: targetSeq, Hops: hops}
	p := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindRREP,
		Size:    rrepBytes,
		Src:     r.env.ID(),
		Dst:     orig,
		TTL:     routing.DefaultTTL,
		Routing: h,
	})
	r.env.SendMac(p, via)
}

func (r *Router) handleRREP(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREP)
	// Forward route to the target through the neighbour that relayed the
	// reply.
	r.update(h.Target, from, h.Hops+1, h.TargetSeq, true)

	if h.Orig == r.env.ID() {
		r.completeDiscovery(h.Target)
		return
	}
	e := r.route(h.Orig)
	if e == nil {
		return // reverse route evaporated; reply is lost
	}
	r.touch(e)
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.TTL--
	nh := *h
	nh.Hops++
	fwd.Routing = &nh
	if fwd.TTL > 0 {
		r.env.SendMac(fwd, e.next)
	} else {
		r.ar.Release(fwd)
	}
}

func (r *Router) completeDiscovery(dst packet.NodeID) {
	if d, ok := r.pending[dst]; ok {
		r.env.Scheduler().Cancel(d.timer)
		delete(r.pending, dst)
	}
	e := r.route(dst)
	if e == nil {
		return
	}
	for _, q := range r.buffer.Pop(dst) {
		r.touch(e)
		r.env.SendMac(q, e.next)
	}
}

func (r *Router) handleRERR(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RERR)
	var propagate []Unreachable
	for _, u := range h.Unreachable {
		e := r.table[u.Dst]
		if e != nil && e.valid && e.next == from {
			e.valid = false
			e.seq = u.Seq
			e.validSeq = true
			// The RERR carries a newer sequence number, so every remembered
			// equal-cost next hop for this destination is now stale.
			r.mp.InvalidateDst(u.Dst)
			propagate = append(propagate, u)
		}
	}
	if len(propagate) > 0 {
		r.broadcastRERR(propagate)
	}
}

func (r *Router) broadcastRERR(list []Unreachable) {
	h := &RERR{Unreachable: list}
	p := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindRERR,
		Size:    rerrBase + rerrPer*len(list),
		Src:     r.env.ID(),
		Dst:     packet.Broadcast,
		TTL:     1,
		Routing: h,
	})
	r.RERRsSent++
	r.env.SendMac(p, packet.Broadcast)
}

func (r *Router) handleData(p *packet.Packet, from packet.NodeID) {
	if p.Dst == r.env.ID() {
		r.env.DeliverLocal(p, from)
		return
	}
	if p.TTL <= 1 {
		r.env.NotifyDrop(p, "ttl")
		return
	}
	e := r.route(p.Dst)
	if e == nil {
		// No route at an intermediate node: report back so upstream
		// nodes and the source stop using us.
		r.env.NotifyDrop(p, "no-route")
		r.broadcastRERR([]Unreachable{{Dst: p.Dst, Seq: r.seqFor(p.Dst)}})
		return
	}
	if p.Kind == packet.KindData {
		r.env.NotifyRelay(p)
	}
	r.touch(e)
	// Refresh the reverse route too: ACKs will flow back.
	if re := r.route(p.Src); re != nil {
		r.touch(re)
	}
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.TTL--
	r.env.SendMac(fwd, e.next)
}

func (r *Router) seqFor(dst packet.NodeID) uint32 {
	if e := r.table[dst]; e != nil {
		return e.seq + 1
	}
	return 0
}

// LinkFailed implements routing.Protocol: MAC retry exhaustion toward next.
func (r *Router) LinkFailed(p *packet.Packet, next packet.NodeID) {
	// The failed neighbour is no longer a candidate for anything.
	r.mp.DropCandidate(int32(next))
	flow := routing.FlowKey(p)
	var lost []Unreachable
	for dst, e := range r.table {
		if e.valid && e.next == next {
			// Repair in place from a surviving equal-cost next hop: same
			// sequence number, same hop count, so the entry stays exactly as
			// fresh and the distance invariant holds — no RERR, no flood.
			if alt, ok := r.mp.Select(flow, dst); ok {
				e.next = packet.NodeID(alt)
				r.touch(e)
				r.Repairs++
				continue
			}
			e.valid = false
			e.seq++
			e.validSeq = true
			lost = append(lost, Unreachable{Dst: dst, Seq: e.seq})
		}
	}
	r.env.DropQueued(func(_ *packet.Packet, n packet.NodeID) bool { return n == next })

	if len(lost) > 0 {
		r.broadcastRERR(lost)
	}

	// A packet whose route was just repaired in place rides the surviving
	// equal-cost next hop immediately; otherwise a data packet from this
	// very node restarts discovery and transit packets are dropped (no
	// flooding local repair — documented simplification). Ownership of p
	// passed back from the MAC: every branch re-sends, re-buffers or
	// releases it.
	if p.Kind == packet.KindData || p.Kind == packet.KindAck {
		if e := r.route(p.Dst); e != nil {
			// Repaired above: the packet must ride the surviving next hop
			// now — no RREP is coming, so the send buffer would never drain.
			r.touch(e)
			r.env.SendMac(p, e.next)
			return
		}
		if p.Src == r.env.ID() {
			r.buffer.Push(p.Dst, p)
			r.startDiscovery(p.Dst)
			return
		}
		r.env.NotifyDrop(p, "link-failure")
	}
	r.ar.Release(p)
}

// Buffered reports how many data packets are parked in the send buffer
// awaiting discovery (retire-drainage audits).
func (r *Router) Buffered() int { return r.buffer.Size() }

// MultiPath exposes the router's equal-cost table (tests, stats).
func (r *Router) MultiPath() *routing.MultiPathTable { return r.mp }

// RouteTo exposes the current next hop for tests and visualisation.
func (r *Router) RouteTo(dst packet.NodeID) (next packet.NodeID, hops int, ok bool) {
	e := r.route(dst)
	if e == nil {
		return 0, 0, false
	}
	return e.next, e.hops, true
}

var (
	_ routing.Protocol   = (*Router)(nil)
	_ routing.Recyclable = (*Router)(nil)
)
