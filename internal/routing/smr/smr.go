// Package smr implements Split Multipath Routing (Lee & Gerla, ICC 2001)
// — the multipath protocol the paper's related-work section (§II) builds
// its motivation on. SMR discovers two maximally disjoint routes per
// destination:
//
//   - intermediate nodes re-broadcast duplicate RREQs that arrived over a
//     different incoming link with a hop count no larger than the first
//     copy (instead of dropping all duplicates), so disjoint route
//     records reach the destination;
//   - the destination replies immediately to the minimum-delay (first)
//     RREQ, then waits a short window, selects the arrived route that is
//     maximally node-disjoint from the first, and sends a second RREP;
//   - the source uses both routes.
//
// Two data-plane modes reproduce the two schemes the paper discusses:
//
//   - ModeSplit (SMR proper): data packets alternate over both routes
//     per packet. Lim et al. (ICC 2003) showed this hurts TCP — the
//     reordering triggers unnecessary congestion control — which is the
//     result the paper cites to argue for MTS's one-active-route design.
//   - ModeBackup (Lim's backup-path scheme): one route is primary, the
//     second is a standby used only after the primary breaks.
package smr

import (
	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Mode selects the data-plane policy over the two discovered routes.
type Mode int

// Data-plane modes.
const (
	ModeSplit  Mode = iota // alternate packets across both routes (SMR)
	ModeBackup             // primary + standby (Lim's backup scheme)
)

// Config holds SMR parameters.
type Config struct {
	Mode Mode
	// SelectWait is how long the destination collects RREQ copies before
	// choosing the maximally disjoint second route.
	SelectWait       sim.Duration
	DiscoveryRetries int
	DiscoveryTimeout sim.Duration
	SendBufCap       int
	SendBufAge       sim.Duration
}

// DefaultConfig returns SMR defaults (split mode, 100 ms selection window).
func DefaultConfig() Config {
	return Config{
		Mode:             ModeSplit,
		SelectWait:       100 * sim.Millisecond,
		DiscoveryRetries: 3,
		DiscoveryTimeout: sim.Second,
		SendBufCap:       64,
		SendBufAge:       8 * sim.Second,
	}
}

// Control packet sizes (bytes).
const (
	rreqBase = 16
	rrepBase = 16
	rerrSize = 24
	addrSize = 4
)

// RREQ is the SMR route request with its accumulated route record.
type RREQ struct {
	Orig   packet.NodeID
	Target packet.NodeID
	ID     uint32
	Record []packet.NodeID // traversed nodes, starting with Orig
}

// RREP carries one complete route back to the originator.
type RREP struct {
	Route []packet.NodeID // Orig … Target
	Index int             // 0 = first (min delay), 1 = disjoint second
	ID    uint32
}

// RERR reports a broken link to the source of a failed packet.
type RERR struct {
	From, To packet.NodeID
	ID       uint32 // discovery the broken route belonged to
}

// rreqSeen is the per-request forwarding state of an intermediate node.
type rreqSeen struct {
	firstFrom packet.NodeID
	firstHops int
	count     int
}

// collectState is the destination's per-request selection window; it is
// the Task of the window's timer, whose argument is the originator.
type collectState struct {
	r       *Router
	id      uint32
	first   []packet.NodeID
	others  [][]packet.NodeID
	timer   sim.TaskHandle
	replied bool
}

// Run implements sim.Task: the selection window closes.
func (cs *collectState) Run(orig int) {
	cs.timer = sim.TaskHandle{}
	cs.r.selectSecond(packet.NodeID(orig), cs)
}

// discovery is one in-flight route discovery and the Task of its timeout.
type discovery struct {
	r        *Router
	attempts int
	timer    sim.TaskHandle
}

// Router is one node's SMR instance.
type Router struct {
	env   routing.Env
	cfg   Config
	ar    *packet.Arena       // the env's packet arena (nil: plain allocation)
	trust routing.TrustOracle // nil: legacy selection, bit-for-bit

	reqID   uint32
	seen    map[seenKey]*rreqSeen
	collect map[packet.NodeID]*collectState // by originator
	pending map[packet.NodeID]*discovery
	buffer  *routing.SendBuffer

	// routes[dst] holds up to two active source routes. The route slices
	// are arena-owned (AcquireRoute) — they are private copies, never
	// shared into routing headers, released exactly once when a route is
	// dropped, its set replaced, or the router retired/recycled. The
	// collectState routes are deliberately NOT arena-owned: the selection
	// window shares them into in-flight RREP headers.
	routes map[packet.NodeID]*routeSet

	// rsPool recycles empty routeSet structs across runs.
	rsPool []*routeSet

	// mp hash-pins flows to a route when a set's primary and standby are
	// equally long (ModeBackup): instead of every flow riding routes[0],
	// each flow sticks to one of the equal-cost pair, halving what a single
	// link failure takes down. Candidates are indices into rs.routes, so
	// every set mutation invalidates that destination. Split mode keeps its
	// per-packet round-robin — alternation is the scheme's defining (and
	// deliberately TCP-hostile) behaviour.
	mp *routing.MultiPathTable

	// Stats
	Discoveries  uint64
	SecondRoutes uint64
	SplitToggles uint64
}

type routeSet struct {
	id     uint32 // discovery the routes belong to
	routes [][]packet.NodeID
	next   int // round-robin pointer (split mode)
}

type seenKey struct {
	orig packet.NodeID
	id   uint32
}

// recycleKey identifies parked SMR routers in a routing.Recycler.
const recycleKey = "smr"

// New creates an SMR router bound to env, reusing a recycled instance's
// state when env carries a routing.Recycler with one parked.
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
		seen:    make(map[seenKey]*rreqSeen),
		collect: make(map[packet.NodeID]*collectState),
		pending: make(map[packet.NodeID]*discovery),
		routes:  make(map[packet.NodeID]*routeSet),
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
// park the instance. Arena-owned route-set buffers are released (the
// route free list survives arena Reset); packets are not (the arena's
// Reset already reclaimed them).
func (r *Router) RecycleInto(rec *routing.Recycler) {
	r.drainRoutes()
	r.buffer.Recycle()
	r.mp.Recycle()
	clear(r.seen)
	clear(r.collect)
	clear(r.pending)
	r.reqID = 0
	r.Discoveries, r.SecondRoutes, r.SplitToggles = 0, 0, 0
	r.env = nil
	r.trust = nil
	rec.Put(recycleKey, r)
}

// drainRoutes releases every route-set buffer to the arena and parks the
// emptied routeSet structs for reuse. Idempotent.
func (r *Router) drainRoutes() {
	for dst, rs := range r.routes {
		r.emptyRouteSet(rs)
		rs.id = 0
		r.rsPool = append(r.rsPool, rs)
		delete(r.routes, dst)
	}
	r.mp.InvalidateAll()
}

// emptyRouteSet releases rs's routes and resets its round-robin pointer.
func (r *Router) emptyRouteSet(rs *routeSet) {
	for i, route := range rs.routes {
		r.ar.ReleaseRoute(route)
		rs.routes[i] = nil
	}
	rs.routes = rs.routes[:0]
	rs.next = 0
}

// newRouteSet takes an empty routeSet from the pool, or allocates one.
func (r *Router) newRouteSet(id uint32) *routeSet {
	if n := len(r.rsPool); n > 0 {
		rs := r.rsPool[n-1]
		r.rsPool[n-1] = nil
		r.rsPool = r.rsPool[:n-1]
		rs.id = id
		return rs
	}
	return &routeSet{id: id}
}

// Retire implements routing.Retirer: hand back buffered packets and the
// route sets' arena-owned buffers at run end.
func (r *Router) Retire() {
	r.buffer.Retire()
	r.drainRoutes()
}

// Name implements routing.Protocol.
func (r *Router) Name() string { return "SMR" }

// Start implements routing.Protocol.
func (r *Router) Start() {}

// Send implements routing.Protocol.
func (r *Router) Send(p *packet.Packet) {
	self := r.env.ID()
	if p.Dst == self {
		r.env.DeliverLocal(p, self)
		r.ar.Release(p)
		return
	}
	if rs := r.routes[p.Dst]; rs != nil && len(rs.routes) > 0 {
		route := r.pickRoute(p.Dst, rs, routing.FlowKey(p))
		r.ar.SetSourceRoute(p, route)
		p.SRIndex = 0
		r.env.SendMac(p, route[1])
		return
	}
	r.buffer.Push(p.Dst, p)
	r.startDiscovery(p.Dst)
}

// pickRoute applies the data-plane mode. In backup mode a pair of equally
// long routes is a genuine equal-cost set, so the flow's hash picks the
// route — each flow stays pinned to one of the two (no reordering), while
// different flows spread across both. An unequal pair keeps strict
// primary/standby semantics.
func (r *Router) pickRoute(dst packet.NodeID, rs *routeSet, flow uint64) []packet.NodeID {
	// Trust defence: both modes collapse to the route with the lowest
	// trust-weighted cost (hop count plus per-relay distrust penalty) —
	// a split that keeps feeding a distrusted relay half the stream would
	// defeat the defence, so trusted selection supersedes alternation.
	if r.trust != nil && len(rs.routes) > 1 {
		best, bestCost := rs.routes[0], routing.TrustCost(r.trust, rs.routes[0])
		for _, route := range rs.routes[1:] {
			if c := routing.TrustCost(r.trust, route); c < bestCost {
				best, bestCost = route, c
			}
		}
		return best
	}
	if r.cfg.Mode == ModeBackup || len(rs.routes) == 1 {
		if len(rs.routes) > 1 && len(rs.routes[1]) == len(rs.routes[0]) {
			if !r.mp.Ready(dst) {
				for i, route := range rs.routes {
					r.mp.Register(dst, int32(len(route)), int32(i))
				}
			}
			if idx, ok := r.mp.Select(flow, dst); ok {
				return rs.routes[idx]
			}
		}
		return rs.routes[0]
	}
	route := rs.routes[rs.next%len(rs.routes)]
	rs.next++
	r.SplitToggles++
	return route
}

func (r *Router) startDiscovery(dst packet.NodeID) {
	if _, busy := r.pending[dst]; busy {
		return
	}
	d := &discovery{r: r}
	r.pending[dst] = d
	r.attempt(dst, d)
}

func (r *Router) attempt(dst packet.NodeID, d *discovery) {
	d.attempts++
	r.Discoveries++
	r.reqID++
	self := r.env.ID()
	h := &RREQ{Orig: self, Target: dst, ID: r.reqID, Record: []packet.NodeID{self}}
	p := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindRREQ,
		Size:    rreqBase + addrSize,
		Src:     self,
		Dst:     dst,
		TTL:     routing.DefaultTTL,
		Routing: h,
	})
	r.seen[seenKey{self, h.ID}] = &rreqSeen{firstFrom: self, count: 1}
	r.env.SendMac(p, packet.Broadcast)

	timeout := r.cfg.DiscoveryTimeout << (d.attempts - 1)
	d.timer = r.env.Scheduler().After(timeout, d, int(dst))
}

// Run implements sim.Task: the discovery for dst (arg) timed out.
func (d *discovery) Run(arg int) {
	r, dst := d.r, packet.NodeID(arg)
	if rs := r.routes[dst]; rs != nil && len(rs.routes) > 0 {
		delete(r.pending, dst)
		return
	}
	if d.attempts >= r.cfg.DiscoveryRetries {
		delete(r.pending, dst)
		r.buffer.DropAll(dst)
		return
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

// handleRREQ applies SMR's duplicate-forwarding rule.
func (r *Router) handleRREQ(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREQ)
	self := r.env.ID()
	if h.Orig == self {
		return
	}
	for _, n := range h.Record {
		if n == self {
			return
		}
	}
	if h.Target == self {
		r.rreqAtDestination(h)
		return
	}
	key := seenKey{h.Orig, h.ID}
	st := r.seen[key]
	hops := len(h.Record)
	switch {
	case st == nil:
		r.seen[key] = &rreqSeen{firstFrom: from, firstHops: hops, count: 1}
	case from != st.firstFrom && hops <= st.firstHops && st.count < 3:
		// SMR rule: forward duplicates from a different incoming link
		// with no larger hop count (bounded to keep the flood finite).
		st.count++
	default:
		return
	}
	if p.TTL <= 1 {
		return
	}
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.TTL--
	nh := &RREQ{Orig: h.Orig, Target: h.Target, ID: h.ID,
		Record: append(packet.CloneRoute(h.Record), self)}
	fwd.Routing = nh
	fwd.Size = rreqBase + addrSize*len(nh.Record)
	r.env.SendMacAfter(r.env.RNG().Jitter(routing.MaxBroadcastJitter), fwd, packet.Broadcast)
}

// rreqAtDestination replies to the first copy immediately and opens the
// selection window for the maximally disjoint second route.
func (r *Router) rreqAtDestination(h *RREQ) {
	self := r.env.ID()
	route := append(packet.CloneRoute(h.Record), self)
	cs := r.collect[h.Orig]
	if cs == nil || cs.id != h.ID {
		if cs != nil {
			r.env.Scheduler().Cancel(cs.timer)
		}
		cs = &collectState{r: r, id: h.ID, first: route, replied: true}
		r.collect[h.Orig] = cs
		r.sendRREP(route, 0, h.ID)
		cs.timer = r.env.Scheduler().After(r.cfg.SelectWait, cs, int(h.Orig))
		return
	}
	cs.others = append(cs.others, route)
}

// selectSecond picks the route maximally disjoint from the first (ties:
// shortest, then earliest) and sends the second RREP.
func (r *Router) selectSecond(orig packet.NodeID, cs *collectState) {
	var best []packet.NodeID
	bestOverlap := 1 << 30
	for _, cand := range cs.others {
		ov := overlap(cs.first, cand)
		if ov < bestOverlap || (ov == bestOverlap && best != nil && len(cand) < len(best)) {
			best, bestOverlap = cand, ov
		}
	}
	if best == nil {
		return
	}
	r.SecondRoutes++
	r.sendRREP(best, 1, cs.id)
}

// overlap counts shared intermediate nodes between two routes.
func overlap(a, b []packet.NodeID) int {
	if len(a) < 3 || len(b) < 3 {
		return 0
	}
	set := make(map[packet.NodeID]bool, len(a))
	for _, n := range a[1 : len(a)-1] {
		set[n] = true
	}
	c := 0
	for _, n := range b[1 : len(b)-1] {
		if set[n] {
			c++
		}
	}
	return c
}

func (r *Router) sendRREP(route []packet.NodeID, index int, id uint32) {
	back := reverseRoute(route)
	if len(back) < 2 {
		return
	}
	p := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindRREP,
		Size:    rrepBase + addrSize*len(route),
		Src:     r.env.ID(),
		Dst:     route[0],
		TTL:     routing.DefaultTTL,
		Routing: &RREP{Route: route, Index: index, ID: id},
		SRIndex: 0,
	})
	r.ar.SetSourceRoute(p, back)
	r.env.SendMac(p, back[1])
}

func (r *Router) handleRREP(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREP)
	self := r.env.ID()
	if p.Dst != self {
		r.forwardSourceRouted(p)
		return
	}
	dst := h.Route[len(h.Route)-1]
	rs := r.routes[dst]
	if rs == nil {
		rs = r.newRouteSet(h.ID)
		r.routes[dst] = rs
	} else if rs.id != h.ID {
		// A newer discovery supersedes the set: release the stale routes
		// and reuse the struct.
		r.emptyRouteSet(rs)
		rs.id = h.ID
		r.mp.InvalidateDst(dst)
	}
	for _, existing := range rs.routes {
		if equalRoute(existing, h.Route) {
			return
		}
	}
	if len(rs.routes) < 2 {
		rs.routes = append(rs.routes, r.ar.AcquireRoute(h.Route))
		r.mp.InvalidateDst(dst)
	}
	r.completeDiscovery(dst)
}

func (r *Router) completeDiscovery(dst packet.NodeID) {
	if d, ok := r.pending[dst]; ok {
		r.env.Scheduler().Cancel(d.timer)
		delete(r.pending, dst)
	}
	rs := r.routes[dst]
	if rs == nil || len(rs.routes) == 0 {
		return
	}
	for _, q := range r.buffer.Pop(dst) {
		route := r.pickRoute(dst, rs, routing.FlowKey(q))
		r.ar.SetSourceRoute(q, route)
		q.SRIndex = 0
		r.env.SendMac(q, route[1])
	}
}

func (r *Router) handleRERR(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RERR)
	self := r.env.ID()
	r.dropRoutesVia(h.From, h.To)
	if p.Dst == self {
		return
	}
	r.forwardSourceRouted(p)
}

// dropRoutesVia removes routes using the broken link from every route
// set, releasing the dropped buffers back to the arena.
func (r *Router) dropRoutesVia(a, b packet.NodeID) {
	for dst, rs := range r.routes {
		kept := rs.routes[:0]
		for _, route := range rs.routes {
			if containsLink(route, a, b) {
				r.ar.ReleaseRoute(route)
			} else {
				kept = append(kept, route)
			}
		}
		for i := len(kept); i < len(rs.routes); i++ {
			rs.routes[i] = nil
		}
		if len(kept) != len(rs.routes) {
			r.mp.InvalidateDst(dst) // indices shifted (or the set emptied)
		}
		rs.routes = kept
		if len(rs.routes) == 0 {
			rs.next = 0
			rs.id = 0
			r.rsPool = append(r.rsPool, rs)
			delete(r.routes, dst)
		}
	}
}

func (r *Router) handleData(p *packet.Packet, from packet.NodeID) {
	self := r.env.ID()
	if p.Dst == self {
		r.env.DeliverLocal(p, from)
		return
	}
	if p.SourceRoute == nil || p.TTL <= 1 {
		r.env.NotifyDrop(p, "no-source-route")
		return
	}
	if p.Kind == packet.KindData {
		r.env.NotifyRelay(p)
	}
	r.forwardSourceRouted(p)
}

func (r *Router) forwardSourceRouted(p *packet.Packet) {
	self := r.env.ID()
	idx := -1
	for i, n := range p.SourceRoute {
		if n == self {
			idx = i
			break
		}
	}
	if idx < 0 || idx+1 >= len(p.SourceRoute) {
		r.env.NotifyDrop(p, "bad-source-route")
		return
	}
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.TTL--
	fwd.SRIndex = idx + 1
	r.env.SendMac(fwd, p.SourceRoute[idx+1])
}

// LinkFailed implements routing.Protocol.
func (r *Router) LinkFailed(p *packet.Packet, next packet.NodeID) {
	self := r.env.ID()
	r.dropRoutesVia(self, next)
	r.env.DropQueued(func(_ *packet.Packet, n packet.NodeID) bool { return n == next })

	if p.Src != self && p.SourceRoute != nil && p.Kind != packet.KindRERR {
		r.sendRERR(p, self, next)
	}
	if p.Kind == packet.KindRERR || p.Kind == packet.KindRREP {
		r.ar.Release(p)
		return
	}
	if p.Src == self {
		// Use the surviving route, or rediscover (SMR re-floods when the
		// route set is exhausted).
		if rs := r.routes[p.Dst]; rs != nil && len(rs.routes) > 0 {
			route := r.pickRoute(p.Dst, rs, routing.FlowKey(p))
			q := r.ar.Copy(p, r.env.UIDs())
			r.ar.SetSourceRoute(q, route)
			q.SRIndex = 0
			r.env.SendMac(q, route[1])
			r.ar.Release(p)
			return
		}
		r.buffer.Push(p.Dst, p)
		r.startDiscovery(p.Dst)
		return
	}
	r.env.NotifyDrop(p, "link-failure")
	r.ar.Release(p)
}

func (r *Router) sendRERR(p *packet.Packet, from, to packet.NodeID) {
	self := r.env.ID()
	idx := -1
	for i, n := range p.SourceRoute {
		if n == self {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return
	}
	back := reverseRoute(p.SourceRoute[:idx+1])
	err := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindRERR,
		Size:    rerrSize,
		Src:     self,
		Dst:     p.Src,
		TTL:     routing.DefaultTTL,
		Routing: &RERR{From: from, To: to},
		SRIndex: 0,
	})
	r.ar.SetSourceRoute(err, back)
	r.env.SendMac(err, back[1])
}

// Buffered reports how many data packets are parked in the send buffer
// awaiting discovery (retire-drainage audits).
func (r *Router) Buffered() int { return r.buffer.Size() }

// MultiPath exposes the router's equal-cost table (tests, stats).
func (r *Router) MultiPath() *routing.MultiPathTable { return r.mp }

// RouteCount returns the number of active routes toward dst (tests).
func (r *Router) RouteCount(dst packet.NodeID) int {
	if rs := r.routes[dst]; rs != nil {
		return len(rs.routes)
	}
	return 0
}

// Routes returns copies of the active routes toward dst (tests).
func (r *Router) Routes(dst packet.NodeID) [][]packet.NodeID {
	rs := r.routes[dst]
	if rs == nil {
		return nil
	}
	out := make([][]packet.NodeID, 0, len(rs.routes))
	for _, route := range rs.routes {
		out = append(out, packet.CloneRoute(route))
	}
	return out
}

func containsLink(r []packet.NodeID, a, b packet.NodeID) bool {
	for i := 0; i+1 < len(r); i++ {
		if (r[i] == a && r[i+1] == b) || (r[i] == b && r[i+1] == a) {
			return true
		}
	}
	return false
}

func equalRoute(a, b []packet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func reverseRoute(r []packet.NodeID) []packet.NodeID {
	out := make([]packet.NodeID, len(r))
	for i, n := range r {
		out[len(r)-1-i] = n
	}
	return out
}

var (
	_ routing.Protocol   = (*Router)(nil)
	_ routing.Recyclable = (*Router)(nil)
)
