// Package dsr implements the Dynamic Source Routing protocol (Johnson &
// Maltz) as the paper's second baseline. Characteristics that matter for
// the paper's comparison and are reproduced here:
//
//   - aggressive route caching with no expiry, including learning routes
//     from forwarded packets and from promiscuously overheard source routes
//     (the MAC tap), which gives DSR its low overhead and low delay at low
//     speeds — and its collapsing delivery rate at high speeds (Fig. 10),
//     when cached routes go stale faster than errors purge them;
//   - replies from cache by intermediate nodes;
//   - source routes carried in every data packet;
//   - route errors unicast back to the source along the failed packet's
//     reversed prefix, plus packet salvaging from the local cache.
package dsr

import (
	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Config holds DSR parameters.
type Config struct {
	CachePerDst      int
	CacheGlobal      int
	MaxSalvage       uint8
	ReplyFromCache   bool
	Snoop            bool // promiscuous source-route snooping via the MAC tap
	DiscoveryRetries int
	BackoffInit      sim.Duration
	BackoffMax       sim.Duration
	SendBufCap       int
	SendBufAge       sim.Duration
}

// DefaultConfig returns the parameter set used in the experiments.
func DefaultConfig() Config {
	return Config{
		CachePerDst:      4,
		CacheGlobal:      64,
		MaxSalvage:       1,
		ReplyFromCache:   true,
		Snoop:            true,
		DiscoveryRetries: 8,
		BackoffInit:      500 * sim.Millisecond,
		BackoffMax:       10 * sim.Second,
		SendBufCap:       64,
		SendBufAge:       8 * sim.Second,
	}
}

// Control packet wire sizes (bytes): base plus 4 per address in the route.
const (
	rreqBase = 16
	rrepBase = 16
	rerrSize = 24
	addrSize = 4
)

// RREQ is the DSR route-request header with its accumulated route record.
type RREQ struct {
	Orig   packet.NodeID
	Target packet.NodeID
	ID     uint32
	Record []packet.NodeID // nodes traversed so far, starting with Orig
}

// RREP carries a complete route Orig → Target back to the originator.
type RREP struct {
	Route []packet.NodeID
}

// RERR reports a broken link From→To back to the source of the failed
// packet.
type RERR struct {
	From, To packet.NodeID
}

// discovery is one in-flight route discovery and the Task of its timeout.
type discovery struct {
	r        *Router
	attempts int
	timer    sim.TaskHandle
}

// Router is one node's DSR instance.
type Router struct {
	env   routing.Env
	cfg   Config
	ar    *packet.Arena       // the env's packet arena (nil: plain allocation)
	trust routing.TrustOracle // nil: legacy selection, bit-for-bit

	cache   *routeCache
	reqID   uint32
	seen    map[seenKey]bool
	pending map[packet.NodeID]*discovery
	buffer  *routing.SendBuffer

	// pathBuf is scratch for assembling candidate cache routes ([self,
	// tail...]); routeCache.Add copies, so the scratch never escapes.
	pathBuf []packet.NodeID

	// Stats
	Discoveries   uint64
	CacheReplies  uint64
	Salvages      uint64
	SnoopedRoutes uint64
}

type seenKey struct {
	orig packet.NodeID
	id   uint32
}

// recycleKey identifies parked DSR routers in a routing.Recycler.
const recycleKey = "dsr"

// New creates a DSR router bound to env, reusing a recycled instance's
// state (maps, cache storage, send-buffer buckets) when env carries a
// routing.Recycler with one parked.
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
		cache:   newRouteCache(env.ID(), cfg.CachePerDst, cfg.CacheGlobal, ar),
		seen:    make(map[seenKey]bool),
		pending: make(map[packet.NodeID]*discovery),
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
	r.cache.rebind(env.ID(), cfg.CachePerDst, cfg.CacheGlobal, ar)
	r.buffer.Rebind(env.Scheduler(), cfg.SendBufCap, cfg.SendBufAge, ar,
		func(p *packet.Packet, reason string) { env.NotifyDrop(p, reason) })
}

// RecycleInto implements routing.Recyclable: reset all per-run state and
// park the instance. Packets are not released here (the arena's Reset
// already reclaimed them); the cache's route buffers are, because the
// route free list survives Reset.
func (r *Router) RecycleInto(rec *routing.Recycler) {
	r.cache.Drain()
	r.cache.mp.Recycle()
	r.buffer.Recycle()
	clear(r.seen)
	clear(r.pending)
	r.reqID = 0
	r.pathBuf = r.pathBuf[:0]
	r.Discoveries, r.CacheReplies, r.Salvages, r.SnoopedRoutes = 0, 0, 0, 0
	r.env = nil
	r.trust = nil
	rec.Put(recycleKey, r)
}

// Retire implements routing.Retirer: hand back buffered packets and the
// cache's arena-owned routes at run end.
func (r *Router) Retire() {
	r.buffer.Retire()
	r.cache.Drain()
}

// Name implements routing.Protocol.
func (r *Router) Name() string { return "DSR" }

// Start implements routing.Protocol.
func (r *Router) Start() {}

// Send implements routing.Protocol: originate an end-to-end packet.
func (r *Router) Send(p *packet.Packet) {
	self := r.env.ID()
	if p.Dst == self {
		r.env.DeliverLocal(p, self)
		r.ar.Release(p)
		return
	}
	if route := r.pickRoute(p.Dst, routing.FlowKey(p)); route != nil {
		r.sendAlong(p, route)
		return
	}
	r.buffer.Push(p.Dst, p)
	r.startDiscovery(p.Dst)
}

// pickRoute selects the route for one of this node's own packets: the
// legacy ECMP hash-spread among equal-shortest routes, or — when the
// trust defence is active — the lowest trust-weighted cost route, so
// traffic routes around neighbours observed dropping (wormhole endpoints,
// black/grayholes).
func (r *Router) pickRoute(dst packet.NodeID, flow uint64) []packet.NodeID {
	if r.trust == nil {
		return r.cache.GetForFlow(dst, flow)
	}
	return r.cache.GetTrusted(dst, r.trust)
}

// sendAlong stamps the source route onto p and transmits to the first hop.
func (r *Router) sendAlong(p *packet.Packet, route []packet.NodeID) {
	r.ar.SetSourceRoute(p, route)
	p.SRIndex = 0
	r.env.SendMac(p, route[1])
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
	r.seen[seenKey{self, h.ID}] = true
	r.env.SendMac(p, packet.Broadcast)

	backoff := r.cfg.BackoffInit << (d.attempts - 1)
	if backoff > r.cfg.BackoffMax {
		backoff = r.cfg.BackoffMax
	}
	d.timer = r.env.Scheduler().After(backoff, d, int(dst))
}

// Run implements sim.Task: the discovery for dst (arg) timed out.
func (d *discovery) Run(arg int) {
	r, dst := d.r, packet.NodeID(arg)
	if r.cache.Get(dst) != nil {
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

// completeDiscovery flushes buffered traffic once a route exists.
func (r *Router) completeDiscovery(dst packet.NodeID) {
	if d, ok := r.pending[dst]; ok {
		r.env.Scheduler().Cancel(d.timer)
		delete(r.pending, dst)
	}
	if r.cache.Get(dst) == nil {
		return
	}
	// Per-packet lookup: equally short routes spread across the buffered
	// flows instead of all draining down one.
	for _, q := range r.buffer.Pop(dst) {
		r.sendAlong(q, r.pickRoute(dst, routing.FlowKey(q)))
	}
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
	self := r.env.ID()
	if h.Orig == self {
		return
	}
	for _, n := range h.Record {
		if n == self {
			return // already on this request's path
		}
	}
	key := seenKey{h.Orig, h.ID}
	if r.seen[key] {
		return
	}
	r.seen[key] = true

	// Learn the reverse route from the accumulated record:
	// [self, prev, ..., n1, orig].
	r.cache.Add(r.scratchSelfPlusReversed(h.Record))

	if h.Target == self {
		route := append(packet.CloneRoute(h.Record), self)
		r.sendRREP(route)
		return
	}

	if r.cfg.ReplyFromCache {
		if cached := r.cache.Get(h.Target); cached != nil {
			prefix := append(packet.CloneRoute(h.Record), self)
			if full := concatenate(prefix, cached); full != nil {
				r.CacheReplies++
				r.sendRREP(full)
				return
			}
		}
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

// sendRREP unicasts a reply carrying the full route back to its origin
// (route[0]) along the reversed route.
func (r *Router) sendRREP(route []packet.NodeID) {
	self := r.env.ID()
	back := reverseRoute(route)
	// Trim the reversed route so it starts at self (the replier may be an
	// intermediate node replying from cache).
	start := -1
	for i, n := range back {
		if n == self {
			start = i
			break
		}
	}
	if start < 0 {
		return
	}
	back = back[start:]
	if len(back) < 2 {
		return
	}
	p := r.ar.NewPacketFrom(packet.Packet{
		UID:     r.env.UIDs().Next(),
		Kind:    packet.KindRREP,
		Size:    rrepBase + addrSize*len(route),
		Src:     self,
		Dst:     back[len(back)-1],
		TTL:     routing.DefaultTTL,
		Routing: &RREP{Route: route},
		SRIndex: 0,
	})
	r.ar.SetSourceRoute(p, back)
	r.env.SendMac(p, back[1])
}

func (r *Router) handleRREP(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREP)
	self := r.env.ID()
	// Every node relaying or receiving a reply learns the carried route
	// segments relative to itself.
	r.learnFromRoute(h.Route)

	if p.Dst == self {
		r.completeDiscovery(h.Route[len(h.Route)-1])
		return
	}
	r.forwardSourceRouted(p)
}

func (r *Router) handleRERR(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RERR)
	r.cache.RemoveLink(h.From, h.To)
	if p.Dst == r.env.ID() {
		return
	}
	r.forwardSourceRouted(p)
}

func (r *Router) handleData(p *packet.Packet, from packet.NodeID) {
	self := r.env.ID()
	if p.Dst == self {
		if p.SourceRoute != nil {
			r.learnFromRoute(p.SourceRoute)
		}
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
	r.learnFromRoute(p.SourceRoute)
	r.forwardSourceRouted(p)
}

// forwardSourceRouted advances a packet along its embedded route.
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

// learnFromRoute caches the sub-routes this node can extract from a full
// route it participates in: the suffix ahead of it and the reversed prefix
// behind it.
func (r *Router) learnFromRoute(route []packet.NodeID) {
	self := r.env.ID()
	for i, n := range route {
		if n != self {
			continue
		}
		if i+1 < len(route) {
			r.cache.Add(route[i:]) // Add copies; aliasing the header is fine
		}
		if i > 0 {
			// [self, route[i-1], ..., route[0]] — route[i] is self.
			r.cache.Add(r.scratchSelfPlusReversed(route[:i]))
		}
		return
	}
}

// scratchSelfPlus fills the router's scratch path with [self, tail...].
// Valid until the next scratch call; routeCache.Add copies it.
func (r *Router) scratchSelfPlus(tail []packet.NodeID) []packet.NodeID {
	r.pathBuf = append(r.pathBuf[:0], r.env.ID())
	r.pathBuf = append(r.pathBuf, tail...)
	return r.pathBuf
}

// scratchSelfPlusReversed fills the scratch path with [self, seg reversed].
func (r *Router) scratchSelfPlusReversed(seg []packet.NodeID) []packet.NodeID {
	r.pathBuf = append(r.pathBuf[:0], r.env.ID())
	for i := len(seg) - 1; i >= 0; i-- {
		r.pathBuf = append(r.pathBuf, seg[i])
	}
	return r.pathBuf
}

// TapFrame implements node.FrameTap: promiscuous snooping. An overheard
// source-routed packet tells us the transmitter (a neighbour, since we
// decoded its frame) can reach everything on the remainder of its route —
// and, reversed, everything back to the route's origin.
func (r *Router) TapFrame(f *packet.Frame) {
	if !r.cfg.Snoop || f.Kind != packet.FrameData || f.Payload == nil {
		return
	}
	p := f.Payload
	if p.SourceRoute == nil || f.TxFrom == r.env.ID() || f.TxTo == r.env.ID() {
		return
	}
	route := p.SourceRoute
	txIdx := -1
	for i, n := range route {
		if n == f.TxFrom {
			txIdx = i
			break
		}
	}
	if txIdx < 0 {
		return
	}
	if suffix := route[txIdx:]; len(suffix) >= 2 {
		if r.cache.Add(r.scratchSelfPlus(suffix)) {
			r.SnoopedRoutes++
		}
	}
	if txIdx >= 1 {
		if r.cache.Add(r.scratchSelfPlusReversed(route[:txIdx+1])) {
			r.SnoopedRoutes++
		}
	}
}

// LinkFailed implements routing.Protocol: MAC retry exhaustion toward
// next. Ownership of p passes back from the MAC: every branch re-sends
// it, re-buffers it, or releases it.
func (r *Router) LinkFailed(p *packet.Packet, next packet.NodeID) {
	self := r.env.ID()
	r.cache.RemoveLink(self, next)
	r.env.DropQueued(func(_ *packet.Packet, n packet.NodeID) bool { return n == next })

	// Tell the packet's source about the broken link (unless we are it).
	if p.Src != self && p.SourceRoute != nil {
		r.sendRERR(p, self, next)
	}

	switch {
	case p.Kind == packet.KindRERR, p.Kind == packet.KindRREP:
		r.ar.Release(p) // control packets are not salvaged
	case p.Src == self:
		// Our own packet: retry via another cached route or rediscover.
		// GetForFlow re-hashes over whatever survived RemoveLink, so a flow
		// whose pinned route just broke lands on a surviving equal-cost one.
		if route := r.pickRoute(p.Dst, routing.FlowKey(p)); route != nil {
			r.sendAlong(p, route)
			return
		}
		r.buffer.Push(p.Dst, p)
		r.startDiscovery(p.Dst)
	default:
		r.salvage(p, next)
	}
}

// sendRERR unicasts a route error to p's source along the reversed prefix
// of p's source route.
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

// salvage re-routes a transit packet around a failed link using the local
// cache, bounded by MaxSalvage.
func (r *Router) salvage(p *packet.Packet, failedNext packet.NodeID) {
	if p.Salvage >= r.cfg.MaxSalvage {
		r.env.NotifyDrop(p, "salvage-limit")
		r.ar.Release(p)
		return
	}
	route := r.cache.GetAvoidingLink(p.Dst, r.env.ID(), failedNext)
	if route == nil {
		r.env.NotifyDrop(p, "link-failure")
		r.ar.Release(p)
		return
	}
	r.Salvages++
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.Salvage++
	r.ar.SetSourceRoute(fwd, route)
	fwd.SRIndex = 0
	r.env.SendMac(fwd, route[1])
	r.ar.Release(p)
}

// Buffered reports how many data packets are parked in the send buffer
// awaiting discovery (retire-drainage audits).
func (r *Router) Buffered() int { return r.buffer.Size() }

// CacheLen exposes the number of cached routes (tests).
func (r *Router) CacheLen() int { return r.cache.Len() }

// HasRoute reports whether a route to dst is cached (tests).
func (r *Router) HasRoute(dst packet.NodeID) bool { return r.cache.Get(dst) != nil }

// MultiPath exposes the cache's ECMP table (tests, stats harvesting).
func (r *Router) MultiPath() *routing.MultiPathTable { return r.cache.mp }

var (
	_ routing.Protocol   = (*Router)(nil)
	_ routing.Recyclable = (*Router)(nil)
)
