// Package core implements MTS (Multipath TCP Security), the routing
// protocol proposed by Li & Kwok in "A New Multipath Routing Approach to
// Enhancing TCP Security in Ad Hoc Wireless Networks" (ICPP Workshops 2005)
// — the paper's primary contribution.
//
// MTS is an on-demand multipath protocol with two distinguishing features
// (§III of the paper):
//
//  1. Adaptive best-route switching. The destination stores up to five
//     disjoint paths discovered by one RREQ flood and periodically sends
//     "checking" packets along all of them. On every checking round the
//     source switches its current route to the path whose checking packet
//     arrived first — the currently fastest path — rather than waiting for
//     the active route to break. A TCP session therefore migrates across
//     paths continuously, which spreads packets over many relays and
//     starves any single eavesdropper (Figs. 5–7).
//
//  2. Immediate first reply. The destination answers the first RREQ copy
//     instantly (no disjointness-collection delay as in SPME/Lee-Lin-Kwok),
//     so TCP starts with minimum latency; additional disjoint paths are
//     collected opportunistically from later copies.
//
// Mechanics reproduced from the paper: intermediate nodes forward only the
// first RREQ copy and never answer from cache (§III-B); disjointness at the
// destination uses the Marina–Das next-hop/last-hop rule (§III-C); checking
// packets carry a checkID cached by intermediate nodes as the freshness
// "entry ID" that builds forward paths (§III-D); checking failures produce
// checking-error packets that make the destination delete the path; a new
// RREQ (larger broadcast ID) flushes all stored paths; MAC-layer feedback
// generates RERRs toward the source, which fails over to another live path
// or re-discovers (§III-E).
package core

import (
	"sort"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Config holds the MTS parameters. Defaults follow the paper; the extra
// knobs exist for the ablation benchmarks.
type Config struct {
	// MaxPaths bounds the disjoint paths stored at the destination
	// ("the number of disjoint paths is not more than five", §III-B).
	MaxPaths int
	// CheckPeriod is the route-checking interval; "typically two to four
	// seconds is acceptable" (§III-D).
	CheckPeriod sim.Duration
	// SwitchOnCheck enables best-route switching at the source (§III-E).
	// Disabling it degrades MTS to a backup-path protocol (ablation).
	SwitchOnCheck bool
	// SwitchMargin is the grace window for the current path in the
	// first-arrival race: if the current path's checking packet arrives
	// within this margin of the round's first, the source keeps it. This
	// suppresses ping-pong switches caused by queueing noise (a TCP
	// killer: every switch reorders packets and triggers spurious fast
	// retransmits) while a genuinely slower or dead current path is still
	// abandoned within one margin.
	SwitchMargin sim.Duration
	// EntryTTL is how long a forwarding entry installed by a checking
	// packet or RREP stays usable without being refreshed.
	EntryTTL sim.Duration
	// SessionIdle stops the destination's checking timer when no data has
	// arrived for this long.
	SessionIdle sim.Duration
	// StaleAfter is how long the source keeps using a path that has not
	// delivered a checking packet (or RREP). Zero derives 2.5×CheckPeriod:
	// two missed checking rounds declare the path dead at the source,
	// mirroring how the destination deletes paths on checking errors.
	StaleAfter sim.Duration

	DiscoveryRetries int
	DiscoveryTimeout sim.Duration
	SendBufCap       int
	SendBufAge       sim.Duration

	// Disperse rotates each outgoing data packet across all currently
	// usable disjoint paths (deterministic round-robin in path-ID order)
	// instead of pinning the flow to the single current best path — the
	// route-dispersal half of the data-shuffling countermeasure
	// (internal/countermeasure). Off reproduces the paper's §III-E
	// single-current-path behaviour exactly.
	Disperse bool
	// AwarePenalty, when positive, enables adversary-aware path
	// selection: a checking round's nominated (fastest) path is re-scored
	// against every usable alternative by the share of this source's data
	// its first hop has already carried, minus AwarePenalty for the
	// nominee; the minimum score wins. Relays that have seen a large
	// share of the flow are thereby avoided using only the source's own
	// forwarding observations — no oracle knowledge of taps. 0 disables
	// (paper behaviour, bit-identical).
	AwarePenalty float64
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		MaxPaths:         5,
		CheckPeriod:      3 * sim.Second,
		SwitchOnCheck:    true,
		SwitchMargin:     25 * sim.Millisecond,
		EntryTTL:         7 * sim.Second, // > 2×CheckPeriod: survives one lost round
		SessionIdle:      30 * sim.Second,
		DiscoveryRetries: 3,
		DiscoveryTimeout: sim.Second,
		SendBufCap:       64,
		SendBufAge:       8 * sim.Second,
	}
}

// Control packet wire sizes (bytes).
const (
	rreqBase     = 16
	rrepBase     = 16
	checkBase    = 16
	checkErrSize = 16
	rerrSize     = 20
	addrSize     = 4
)

// RREQ is the MTS route request: "packet type, source address, destination
// address, broadcast ID, hop count from the source, and list of
// intermediate nodes" (§III-B).
type RREQ struct {
	Orig   packet.NodeID
	Target packet.NodeID
	BID    uint32
	Hops   int
	Record []packet.NodeID // [Orig, n1, ...]; Target appends itself
}

// RREP answers the first RREQ copy immediately: "packet type, source
// address, destination address, route reply ID, hop count, and list of
// intermediate nodes" (§III-B). It is carried back along the reverse path.
type RREP struct {
	Route  []packet.NodeID // full path S … D
	BID    uint32
	PathID int
}

// Check is the route-checking packet: "packet type, checking packet ID,
// hop count, and list of intermediate nodes" (§III-D). It travels D → S
// along one stored disjoint path; intermediate nodes cache CheckID as the
// freshness entry ID toward the destination.
type Check struct {
	From    packet.NodeID // the checking destination (route's D)
	To      packet.NodeID // the session source
	CheckID uint32
	PathID  int
	Route   []packet.NodeID // travel order D … S
}

// CheckErr reports a checking packet that could not be forwarded; it
// returns to the destination, which deletes the failed path (§III-D).
type CheckErr struct {
	PathID  int
	CheckID uint32
}

// RERR reports a data-forwarding failure back to the source, which fails
// over to another checked path or re-discovers (§III-E).
type RERR struct {
	Dst    packet.NodeID // unreachable destination
	PathID int
}

// srcPath is the source's view of one disjoint path.
type srcPath struct {
	next        packet.NodeID // first hop from the source
	lastCheckID uint32
	lastHeard   sim.Time
	alive       bool
}

// srcState is per-destination state at a traffic source.
type srcState struct {
	paths           map[int]*srcPath
	current         int
	haveRoute       bool
	lastSwitchRound uint32
	// pendingSwitch defers a round's switch decision by SwitchMargin so
	// the current path can defend its place (see Config.SwitchMargin);
	// nominee is the path that round's first checking packet nominated.
	pendingSwitch sim.TaskHandle
	nominee       int
	// sent counts data packets handed to each first hop (lazily
	// allocated; drives the AwarePenalty usage-skew scores), rotate is
	// the Disperse round-robin cursor, and scratch is the reused backing
	// array for usablePathIDs (dispersal runs per data packet — it must
	// not allocate per send).
	sent      map[packet.NodeID]uint64
	sentTotal uint64
	rotate    int
	scratch   []int
}

// storedPath is the destination's record of one disjoint path.
type storedPath struct {
	id    int
	route []packet.NodeID // S … D
	alive bool
}

// dstState is per-source state at a traffic destination.
type dstState struct {
	bid          uint32
	paths        []*storedPath
	timer        sim.TaskHandle
	lastData     sim.Time
	lastDataPath int
}

// fwdEntry is an intermediate node's forwarding entry toward a destination,
// installed by an RREP or refreshed by checking packets.
type fwdEntry struct {
	next    packet.NodeID
	checkID uint32
	at      sim.Time
}

// Stats counts MTS events for metrics and tests.
type Stats struct {
	Discoveries  uint64
	ChecksSent   uint64
	CheckErrs    uint64
	Switches     uint64
	PathsStored  uint64
	PathsDeleted uint64
	RERRsSent    uint64
	// AwareOverrides counts checking rounds where the usage-skew policy
	// (Config.AwarePenalty) moved the flow off the nominated fastest path
	// onto a less-exposed one.
	AwareOverrides uint64
}

// Router is one node's MTS instance.
type Router struct {
	env   routing.Env
	cfg   Config
	ar    *packet.Arena       // the env's packet arena (nil: plain allocation)
	trust routing.TrustOracle // nil: legacy selection, bit-for-bit

	bid     uint32
	seen    map[seenKey]bool
	buffer  *routing.SendBuffer
	pending map[packet.NodeID]*discovery

	src map[packet.NodeID]*srcState         // keyed by destination
	dst map[packet.NodeID]*dstState         // keyed by source
	fwd map[packet.NodeID]map[int]*fwdEntry // dest -> pathID -> entry

	checkID    uint32 // this node's checking-round counter as a destination
	nextPathID int    // monotone per node; avoids aliasing across flushes

	// mp supplies the ECMP hash used to break failover ties. MTS's usable
	// set is too volatile to cache (paths age out of usability with the
	// checking clock), so only the table's selector is used — PickIndex
	// over the usable paths tied at the freshest lastHeard — never its
	// candidate store. Held rather than recreated so the derived seed
	// follows the Recycler contract like every other piece of state.
	mp *routing.MultiPathTable

	// Free lists for the per-flow state structs and the forwarding layer's
	// inner maps, refilled when the router is recycled across runs. The
	// storedPath route slices are deliberately NOT pooled: the destination
	// shares them into in-flight RREP and Check headers (see sendCheck).
	srcPool    []*srcState
	dstPool    []*dstState
	fwdMapPool []map[int]*fwdEntry
	fePool     []*fwdEntry

	Stats Stats
}

type seenKey struct {
	orig packet.NodeID
	bid  uint32
}

// discovery is one in-flight route discovery and the Task of its timeout.
type discovery struct {
	r        *Router
	attempts int
	timer    sim.TaskHandle
}

// staleAfter returns the source-side path freshness horizon.
func (r *Router) staleAfter() sim.Duration {
	if r.cfg.StaleAfter > 0 {
		return r.cfg.StaleAfter
	}
	return r.cfg.CheckPeriod*2 + r.cfg.CheckPeriod/2
}

// usable reports whether a source-side path can carry data now: alive and
// recently confirmed by a checking packet or RREP.
func (r *Router) usable(sp *srcPath) bool {
	if sp == nil || !sp.alive {
		return false
	}
	return r.env.Scheduler().Now().Sub(sp.lastHeard) <= r.staleAfter()
}

// usablePathIDs returns every currently usable path's ID in ascending
// order — the deterministic iteration base for dispersal rotation and
// aware re-scoring (map order must never leak into behaviour). The
// returned slice aliases ss.scratch and is valid until the next call.
func (r *Router) usablePathIDs(ss *srcState) []int {
	ids := ss.scratch[:0]
	for id, sp := range ss.paths {
		if r.usable(sp) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	ss.scratch = ids
	return ids
}

// pickDataPath chooses the path for one outgoing data packet: the current
// path under the paper's policy, or — with Config.Disperse — the next
// usable path in a round-robin over ascending path IDs, so consecutive
// segments of the flow ride different disjoint paths and no single tapped
// relay observes a contiguous stretch of the stream. With AwarePenalty
// also set, the rotation becomes usage-balanced: each packet takes the
// usable path whose first hop has carried the fewest of our data packets,
// which keeps exposure even when the usable set churns (a path that was
// briefly alone stops hogging the flow the moment alternatives return).
func (r *Router) pickDataPath(ss *srcState) (int, *srcPath, bool) {
	if r.cfg.Disperse {
		if ids := r.dropDistrusted(ss, r.usablePathIDs(ss)); len(ids) > 0 {
			id := ids[ss.rotate%len(ids)]
			if r.cfg.AwarePenalty > 0 {
				id = ids[0]
				for _, cand := range ids[1:] {
					if ss.sent[ss.paths[cand].next] < ss.sent[ss.paths[id].next] {
						id = cand
					}
				}
			}
			ss.rotate++
			return id, ss.paths[id], true
		}
	}
	sp := ss.paths[ss.current]
	if !r.usable(sp) {
		return 0, nil, false
	}
	// Under the trust defence a current path whose first hop has fallen
	// below the distrust threshold is sidestepped packet-by-packet: the
	// usable alternative with the lowest trust penalty carries the data
	// until the next checking round formally re-elects a path.
	if r.trust != nil && r.trust.Distrusted(sp.next) {
		if alt := r.trustedTarget(ss, ss.current); alt != ss.current {
			return alt, ss.paths[alt], true
		}
	}
	return ss.current, sp, true
}

// dropDistrusted filters a usable-ID set (ascending, scratch-backed) down
// to the paths whose first hop the trust oracle still accepts. When every
// usable path is distrusted the set is returned as filtered anyway only if
// non-empty; an all-distrusted set comes back unchanged — a suspect path
// still beats no path. Compaction is in place, preserving order.
func (r *Router) dropDistrusted(ss *srcState, ids []int) []int {
	if r.trust == nil || len(ids) == 0 {
		return ids
	}
	kept := ids[:0]
	for _, id := range ids {
		if !r.trust.Distrusted(ss.paths[id].next) {
			kept = append(kept, id)
		}
	}
	if len(kept) == 0 {
		return ids
	}
	return kept
}

// trustedTarget returns the usable path with the strictly lowest trust
// penalty when the given path's first hop is distrusted (ascending-ID scan,
// so ties keep the incumbent, then the lowest alternative ID). With a
// trusted first hop — or no better alternative — the incumbent stands.
func (r *Router) trustedTarget(ss *srcState, incumbent int) int {
	inc := ss.paths[incumbent]
	if inc == nil || !r.trust.Distrusted(inc.next) {
		return incumbent
	}
	best, bestCost := incumbent, r.trust.Cost(inc.next)
	for _, id := range r.usablePathIDs(ss) {
		if id == incumbent {
			continue
		}
		if c := r.trust.Cost(ss.paths[id].next); c < bestCost {
			best, bestCost = id, c
		}
	}
	return best
}

// noteDataSend records which first hop carried one of our data packets —
// the observation base for the usage-skew scores. Only kept when the
// aware policy is on, so the paper-configuration hot path stays
// allocation-free.
func (r *Router) noteDataSend(ss *srcState, next packet.NodeID) {
	if r.cfg.AwarePenalty <= 0 {
		return
	}
	if ss.sent == nil {
		ss.sent = make(map[packet.NodeID]uint64)
	}
	ss.sent[next]++
	ss.sentTotal++
}

// switchTarget applies the adversary-aware re-scoring to a checking
// round's nominated (first-arrival) path: every usable path is scored by
// the share of this source's data its first hop has already carried, the
// nominee gets an AwarePenalty head start for being fastest, and the
// minimum score wins (ties in favour of the nominee, then the lower ID).
// With the policy off — or before any data has been sent — the nominee
// wins unconditionally, which is the paper's §III-E rule.
func (r *Router) switchTarget(ss *srcState, nominated int) int {
	// The trust defence vetoes a distrusted nominee outright: being the
	// checking round's first arrival is no credential when the first hop
	// has been caught dropping data. Counted as an aware override — it is
	// the same knob (adversary evidence beats latency) fed by different
	// evidence.
	if r.trust != nil {
		if alt := r.trustedTarget(ss, nominated); alt != nominated {
			r.Stats.AwareOverrides++
			nominated = alt
		}
	}
	if r.cfg.AwarePenalty <= 0 || ss.sentTotal == 0 {
		return nominated
	}
	nom := ss.paths[nominated]
	if !r.usable(nom) {
		return nominated
	}
	share := func(sp *srcPath) float64 {
		return float64(ss.sent[sp.next]) / float64(ss.sentTotal)
	}
	best, bestScore := nominated, share(nom)-r.cfg.AwarePenalty
	for _, id := range r.usablePathIDs(ss) {
		if id == nominated {
			continue
		}
		// Strict improvement only: ties keep the nominee, then the
		// lowest alternative ID (the scan is in ascending ID order).
		if score := share(ss.paths[id]); score < bestScore {
			best, bestScore = id, score
		}
	}
	if best != nominated {
		r.Stats.AwareOverrides++
	}
	return best
}

// recycleKey identifies parked MTS routers in a routing.Recycler.
const recycleKey = "mts"

// New creates an MTS router bound to env, reusing a recycled instance's
// state (maps, per-flow struct pools, send-buffer buckets) when env
// carries a routing.Recycler with one parked.
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
		seen:    make(map[seenKey]bool),
		pending: make(map[packet.NodeID]*discovery),
		src:     make(map[packet.NodeID]*srcState),
		dst:     make(map[packet.NodeID]*dstState),
		fwd:     make(map[packet.NodeID]map[int]*fwdEntry),
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

// RecycleInto implements routing.Recyclable: reset all per-run state,
// refill the struct pools and park the instance. No packets are released
// (the arena's Reset already reclaimed them) and the stored-path route
// slices go to the GC (they may still be aliased by dead headers).
func (r *Router) RecycleInto(rec *routing.Recycler) {
	clear(r.seen)
	clear(r.pending)
	for dst, ss := range r.src {
		clear(ss.paths)
		if ss.sent != nil {
			clear(ss.sent)
		}
		ss.current, ss.haveRoute, ss.lastSwitchRound = 0, false, 0
		ss.pendingSwitch, ss.nominee = sim.TaskHandle{}, 0
		ss.sentTotal, ss.rotate = 0, 0
		ss.scratch = ss.scratch[:0]
		r.srcPool = append(r.srcPool, ss)
		delete(r.src, dst)
	}
	for src, ds := range r.dst {
		for i := range ds.paths {
			ds.paths[i] = nil
		}
		*ds = dstState{paths: ds.paths[:0], lastDataPath: -1}
		r.dstPool = append(r.dstPool, ds)
		delete(r.dst, src)
	}
	for dst, m := range r.fwd {
		for id, e := range m {
			*e = fwdEntry{}
			r.fePool = append(r.fePool, e)
			delete(m, id)
		}
		r.fwdMapPool = append(r.fwdMapPool, m)
		delete(r.fwd, dst)
	}
	r.buffer.Recycle()
	r.mp.Recycle()
	r.bid, r.checkID, r.nextPathID = 0, 0, 0
	r.Stats = Stats{}
	r.env = nil
	r.trust = nil
	rec.Put(recycleKey, r)
}

// newSrcState takes a reset srcState from the pool, or allocates one.
func (r *Router) newSrcState() *srcState {
	if n := len(r.srcPool); n > 0 {
		ss := r.srcPool[n-1]
		r.srcPool[n-1] = nil
		r.srcPool = r.srcPool[:n-1]
		return ss
	}
	return &srcState{paths: make(map[int]*srcPath)}
}

// newDstState takes a reset dstState from the pool, or allocates one.
func (r *Router) newDstState() *dstState {
	if n := len(r.dstPool); n > 0 {
		ds := r.dstPool[n-1]
		r.dstPool[n-1] = nil
		r.dstPool = r.dstPool[:n-1]
		return ds
	}
	return &dstState{lastDataPath: -1}
}

// Retire implements routing.Retirer: hand back buffered packets at run end.
func (r *Router) Retire() { r.buffer.Retire() }

// Buffered reports how many data packets are parked in the send buffer
// awaiting discovery (retire-drainage audits).
func (r *Router) Buffered() int { return r.buffer.Size() }

// Name implements routing.Protocol.
func (r *Router) Name() string { return "MTS" }

// Start implements routing.Protocol.
func (r *Router) Start() {}

// Receive implements routing.Protocol.
func (r *Router) Receive(p *packet.Packet, from packet.NodeID) {
	switch p.Kind {
	case packet.KindRREQ:
		r.handleRREQ(p, from)
	case packet.KindRREP:
		r.handleRREP(p, from)
	case packet.KindCheck:
		r.handleCheck(p, from)
	case packet.KindCheckErr:
		r.handleCheckErr(p, from)
	case packet.KindRERR:
		r.handleRERR(p, from)
	default:
		r.handleData(p, from)
	}
}

// setFwd installs/refreshes a forwarding entry toward dst for pathID,
// updating the existing entry in place (no reference to a fwdEntry ever
// outlives the call that read it).
func (r *Router) setFwd(dst packet.NodeID, pathID int, next packet.NodeID, checkID uint32) {
	m := r.fwd[dst]
	if m == nil {
		if n := len(r.fwdMapPool); n > 0 {
			m = r.fwdMapPool[n-1]
			r.fwdMapPool[n-1] = nil
			r.fwdMapPool = r.fwdMapPool[:n-1]
		} else {
			m = make(map[int]*fwdEntry)
		}
		r.fwd[dst] = m
	}
	e := m[pathID]
	if e == nil {
		if n := len(r.fePool); n > 0 {
			e = r.fePool[n-1]
			r.fePool[n-1] = nil
			r.fePool = r.fePool[:n-1]
		} else {
			e = &fwdEntry{}
		}
		m[pathID] = e
	}
	e.next, e.checkID, e.at = next, checkID, r.env.Scheduler().Now()
}

// dropFwd removes one forwarding entry, returning its struct to the pool.
func (r *Router) dropFwd(m map[int]*fwdEntry, id int) {
	if e := m[id]; e != nil {
		*e = fwdEntry{}
		r.fePool = append(r.fePool, e)
	}
	delete(m, id)
}

// liveFwd returns the freshest usable forwarding entry toward dst,
// preferring the requested pathID. Entries whose next hop appears in the
// packet's trail are skipped: falling back across paths must never send a
// packet to a node it already visited (ping-pong loops between the entries
// of different disjoint paths). Stale entries are pruned as a side effect.
func (r *Router) liveFwd(dst packet.NodeID, pathID int, trail []packet.NodeID) (next packet.NodeID, chosen int, ok bool) {
	m := r.fwd[dst]
	if m == nil {
		return 0, 0, false
	}
	visited := func(n packet.NodeID) bool {
		for _, v := range trail {
			if v == n {
				return true
			}
		}
		return false
	}
	now := r.env.Scheduler().Now()
	cutoff := now.Add(-r.cfg.EntryTTL)
	if e, found := m[pathID]; found {
		if e.at >= cutoff {
			if !visited(e.next) {
				return e.next, pathID, true
			}
		} else {
			r.dropFwd(m, pathID)
		}
	}
	bestID := -1
	var best *fwdEntry
	for id, e := range m {
		if e.at < cutoff {
			r.dropFwd(m, id)
			continue
		}
		if visited(e.next) {
			continue
		}
		better := best == nil || e.checkID > best.checkID ||
			(e.checkID == best.checkID && e.at > best.at) ||
			(e.checkID == best.checkID && e.at == best.at && id < bestID)
		if better {
			best, bestID = e, id
		}
	}
	if best == nil {
		return 0, 0, false
	}
	return best.next, bestID, true
}

var (
	_ routing.Protocol   = (*Router)(nil)
	_ routing.Recyclable = (*Router)(nil)
)
