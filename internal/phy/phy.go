// Package phy models the shared wireless medium: a unit-disc radio channel
// with configurable receive and carrier-sense ranges, signal propagation
// delay, half-duplex radios, and a receiver-side collision model.
//
// Model (documented substitution for ns-2's two-ray ground propagation):
//
//   - A frame is decodable by radios within RxRange of the transmitter at
//     the moment transmission starts (positions change negligibly during a
//     frame's ~1 ms airtime).
//   - Radios within CSRange sense energy (physical carrier sense) but
//     cannot decode beyond RxRange.
//   - Two frames overlapping in time at a receiver, both within RxRange,
//     corrupt each other (no capture effect). Energy from the
//     (RxRange, CSRange] ring defers transmitters but does not corrupt.
//   - A radio that is transmitting cannot receive (half duplex).
//   - All receivers of one transmission share a single propagation delay:
//     the distance of the farthest carrier-sensing radio over PropSpeed
//     (so it is still bounded by MaxPropDelay). Per-receiver delays would
//     differ by under 2 µs across a 550 m neighbourhood — an order of
//     magnitude below the 20 µs slot time that quantises every MAC
//     decision — and a common delay lets the channel deliver a whole
//     neighbourhood with two scheduler events instead of 2·k (see
//     "Arrival batching" below and docs/PAPER_MAP.md for the divergence
//     note).
//
// # Arrival batching
//
// Transmit resolves its audience once and records it in a pooled per-
// transmission arrival batch as three bitsets over radio indices: the
// radios in carrier-sense range, the decodable ones, and the decodable
// ones whose delivery DropFrame force-corrupts. Two scheduler events per
// transmission (one batched first-bit, one batched last-bit) then walk the
// batch in radio-ID order, so the scheduler's heap sees ~k× fewer inserts
// than the one-event-pair-per-receiver scheme this replaces.
//
// The walks visit only the radios that act on the frame: the decodable
// ones, and those whose listener is subscribed to energy edges
// (Radio.SubscribeEnergy). Listeners attach subscribed; the MAC subscribes
// only while it contends for the medium, the only state in which its
// EnergyUp and EnergyDown do anything, so the walks skip the sense-only
// majority of an audience. A subscribed radio keeps an exact energy
// counter, seeded from the in-flight batches when it subscribes; Busy of
// an unsubscribed radio counts the in-flight batches instead. Each walk
// records the radio it is visiting and re-reads the subscription mask
// after every callback, so a listener (un)subscribed mid-walk sees the
// same counts and edges as under per-radio counters, and callback order,
// sequence numbers and timing match a walk over the whole audience.
//
// The reference mode behind UseUnbatchedArrivals schedules the historical
// 2·k individual events, one pair per carrier-sensing radio, keeps every
// radio's energy counter and delivers every edge whether subscribed or
// not. Because all first-bit events share one timestamp and consecutive
// insertion sequences (and likewise the last-bit events), the two modes
// dispatch in the same order; they are observably identical as long as a
// listener ignores the edges it has not subscribed to, and that
// equivalence is what the property tests pin.
//
// # Receiver lookup
//
// Transmit resolves its audience through a uniform-grid spatial index
// (geo.Grid) instead of scanning every attached radio, so the cost of one
// transmission scales with the neighbourhood size, not the population. The
// grid holds a position snapshot per radio; snapshots of moving radios are
// refreshed lazily on a coarse epoch chosen so that the possible drift
// since the last refresh stays below a slack margin, and every query is
// inflated by that margin. The grid marks the candidates in a bitset, and
// one pass in ascending radio ID distance-checks them against their exact
// current positions, so the delivered receiver set and its order are
// bit-for-bit those of a full scan (the linear reference path is kept,
// behind UseLinearScan, for equivalence tests).
package phy

import (
	"math"
	"math/bits"

	"mtsim/internal/geo"
	"mtsim/internal/mobility"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Listener is the MAC-side interface a Radio reports to.
type Listener interface {
	// EnergyUp is called when the number of in-CS-range transmissions
	// rises from zero: the medium became busy.
	EnergyUp()
	// EnergyDown is called when the medium becomes idle again.
	EnergyDown()
	// RxEnd delivers a frame whose last bit has arrived. ok is false if
	// the frame was corrupted by a collision. Every decodable frame is
	// delivered (even corrupted ones) so the MAC can apply EIFS rules.
	RxEnd(f *packet.Frame, ok bool)
}

// Radio is one node's attachment to the channel.
type Radio struct {
	ID  packet.NodeID
	lis Listener
	ch  *Channel
	idx int32 // index in ch.radios; doubles as the spatial-grid id and bit index

	// maxSpeed bounds how fast the radio can move (m/s); it controls how
	// stale the radio's grid snapshot may become. +Inf means unknown
	// (raw Attach), which forces exact per-transmit snapshot refresh.
	maxSpeed float64

	// mob gives the position over time. Many queries land on the same
	// timestamp (every receiver check of one transmission), so its answer
	// is memoised per timestamp.
	mob      mobility.Model
	posKnown bool
	posTime  sim.Time
	posCache geo.Point

	transmitting bool
	// energy counts the in-CS-range transmissions currently on air. It is
	// exact while the radio is subscribed to energy edges (and always under
	// UseUnbatchedArrivals); otherwise it is stale and Busy counts the
	// in-flight batches instead.
	energy int

	// current decode in progress (nil if none)
	rx *reception

	// Stats
	FramesSent     uint64
	FramesDecoded  uint64
	FramesCollided uint64
}

type reception struct {
	frame    *packet.Frame
	collided bool
}

// positionAt returns the radio's position at t, memoised per timestamp.
func (r *Radio) positionAt(t sim.Time) geo.Point {
	if !r.posKnown || r.posTime != t {
		r.posCache = r.mob.PositionAt(t)
		r.posTime = t
		r.posKnown = true
	}
	return r.posCache
}

// SetMaxSpeed declares an upper bound on the radio's movement speed in
// m/s. 0 marks the radio stationary (its grid snapshot is never refreshed);
// any finite bound lets the channel refresh snapshots on a coarse epoch
// instead of at every transmission. Radios attach with an unknown (+Inf)
// bound, which is always safe.
func (r *Radio) SetMaxSpeed(v float64) {
	if v < 0 {
		panic("phy: negative max speed")
	}
	r.maxSpeed = v
	r.ch.policyDirty = true
	// Re-snapshot immediately: a radio leaving the movers set (v == 0)
	// would otherwise freeze a stale snapshot while the query slack
	// computed for it drops, silently shrinking its receivable range.
	if r.ch.grid != nil {
		r.ch.grid.Update(r.idx, r.positionAt(r.ch.sched.Now()))
	}
}

// Run implements sim.Task: the radio's transmission-complete event.
func (r *Radio) Run(arg int) {
	if arg == radioTxDone {
		r.transmitting = false
	}
}

const radioTxDone = 0

// Task args for the batched arrival events. Args ≥ unbatchedArgBase encode
// a per-receiver event for the UseUnbatchedArrivals reference mode:
// arg = unbatchedArgBase + 2*radio index + phase (phase 0 first bit, 1 last
// bit).
const (
	batchStartArg    = 0
	batchEndArg      = 1
	unbatchedArgBase = 2
)

// bitset is a set of radio indices, one bit each.
type bitset []uint64

func (s bitset) has(id int32) bool { return s[id>>6]&(1<<(id&63)) != 0 }
func (s bitset) set(id int32)      { s[id>>6] |= 1 << (id & 63) }

// Where a batched transmission stands. Busy and SubscribeEnergy read it to
// count the batch for a radio exactly as the walk would have counted it.
const (
	phaseSent     = iota // first bit still propagating: counted by nobody
	phaseStarting        // first-bit walk at cursor: counted by ids <= cursor
	phaseOnAir           // between the walks: counted by the whole audience
	phaseEnding          // last-bit walk at cursor: counted by ids > cursor
)

// arrivalBatch carries one transmission's whole audience as bitsets over
// radio indices, all fixed at transmit time — range is evaluated when the
// first bit leaves the antenna, matching the model note above: cs holds
// every radio in carrier-sense range, dec the decodable ones, drop the
// decodable ones DropFrame force-corrupts. It is the Task behind both
// delivery modes: batched (two events walk the bitsets in ID order) and
// unbatched reference (2·n events, one pair per cs radio). A batch stays on
// the channel's in-flight list from Transmit until its last-bit delivery
// has run — or until Reset/Retire drains it — and then parks on the free
// list with its bitset storage kept. Batches reference the frame but never
// own it; frame release stays with the MAC's quarantine (the batch's own
// lifetime is bounded by MaxPropDelay + airtime, inside the quarantine
// hold).
type arrivalBatch struct {
	ch            *Channel
	frame         *packet.Frame
	words         []uint64 // backing store of cs, dec and drop
	cs, dec, drop bitset
	n             int   // radios in cs
	phase         int   // phaseSent..phaseEnding (batched mode)
	cursor        int32 // radio the current walk is visiting
	live          int   // outstanding last-bit events (1 batched, n unbatched)
	idx           int   // position in ch.inflight (swap-remove bookkeeping)
}

// walk delivers the first bit (or, in phaseEnding, the last bit) to the
// radios the frame acts on — decodable, or subscribed to energy edges — in
// ascending radio index. It re-reads the subscription mask after every
// callback, so a listener (un)subscribed by a callback earlier in the walk
// is picked up (or skipped) from then on, and after RxEnd, so a listener
// that subscribed inside it, seeded without this batch, still sees the
// falling edge.
func (b *arrivalBatch) walk() {
	ch, cs, dec, drop := b.ch, b.cs, b.dec, b.drop
	for w := range cs {
		var seen uint64 // bits of word w up to the last one visited
		for {
			subs := ch.subs[w]
			word := (dec[w] | cs[w]&subs) &^ seen
			if word == 0 {
				break
			}
			bit := bits.TrailingZeros64(word)
			m := uint64(1) << bit
			seen = m<<1 - 1
			b.cursor = int32(w<<6 + bit)
			rcv := ch.radios[b.cursor]
			if b.phase == phaseEnding {
				if subs&m != 0 {
					rcv.energy--
				}
				if dec[w]&m != 0 {
					ch.endDecode(rcv, b.frame)
				}
				if ch.subs[w]&m != 0 && rcv.energy == 0 && rcv.lis != nil {
					rcv.lis.EnergyDown()
				}
				continue
			}
			if subs&m != 0 {
				rcv.energy++
				if rcv.energy == 1 && rcv.lis != nil {
					rcv.lis.EnergyUp()
				}
			}
			if dec[w]&m != 0 {
				ch.beginDecode(rcv, b.frame, drop[w]&m != 0)
			}
		}
	}
}

// counts reports whether the batch currently adds to radio id's energy:
// the id is in carrier-sense range and the first-bit walk has reached it
// while the last-bit walk has not.
func (b *arrivalBatch) counts(id int32) bool {
	if int(id>>6) >= len(b.cs) || !b.cs.has(id) {
		return false
	}
	switch b.phase {
	case phaseStarting:
		return id <= b.cursor
	case phaseOnAir:
		return true
	case phaseEnding:
		return id > b.cursor
	}
	return false
}

// Run implements sim.Task.
func (b *arrivalBatch) Run(arg int) {
	ch := b.ch
	switch arg {
	case batchStartArg:
		b.phase = phaseStarting
		b.walk()
		b.phase = phaseOnAir
	case batchEndArg:
		b.phase = phaseEnding
		b.walk()
		ch.parkBatch(b)
	default:
		id, phase := int32(arg-unbatchedArgBase)/2, (arg-unbatchedArgBase)%2
		rcv := ch.radios[id]
		if phase == 0 {
			ch.arriveStart(rcv, b.frame, b.dec.has(id), b.drop.has(id))
			return
		}
		ch.arriveEnd(rcv, b.frame, b.dec.has(id))
		b.live--
		if b.live == 0 {
			ch.parkBatch(b)
		}
	}
}

// Channel is the shared medium connecting all radios.
type Channel struct {
	sched   *sim.Scheduler
	radios  []*Radio
	RxRange float64 // metres, decodable
	CSRange float64 // metres, senseable
	// PropSpeed is the signal propagation speed in metres/second.
	PropSpeed float64
	// DropFrame, when non-nil, is consulted once per decodable receiver at
	// transmit time (when the arrival batch is filled); returning true
	// force-corrupts that delivery. Used by tests to inject losses on
	// specific links.
	DropFrame func(f *packet.Frame, to packet.NodeID) bool

	// Spatial index over radio position snapshots.
	grid        *geo.Grid
	spareGrid   *geo.Grid // previous run's grid, reusable by EnableGrid
	cand        []uint64  // grid candidates of one Transmit; all-zero between calls
	spare       []*Radio  // recycled Radio structs (Reset → Attach)
	movers      []*Radio  // radios whose snapshots go stale (maxSpeed > 0)
	policyDirty bool      // movers/epoch need recomputation
	slackBudget float64   // max tolerated snapshot drift, metres
	slack       float64   // current query-radius inflation
	epoch       sim.Duration
	nextRefresh sim.Time
	exact       bool // refresh every transmit (some radio has unknown speed)

	// linear switches Transmit to the O(N) scan over all radios — the
	// reference implementation the grid path must match bit-for-bit.
	linear bool
	// unbatched switches delivery to 2·k individual arrival events over
	// the same precomputed batch, with every radio's energy counter kept
	// and every edge delivered — the reference for the batched path.
	unbatched bool

	// subs has bit i set while radio i's listener is subscribed to energy
	// edges; the batched walks visit sense-only radios only if it is set.
	subs bitset

	inflight  []*arrivalBatch     // batches with deliveries still scheduled
	batchFree []*arrivalBatch     // parked batches (bitset storage kept)
	recPool   sim.Pool[reception] // recycled receptions (decode state)
}

// DefaultRxRange and DefaultCSRange follow the paper (250 m transmission
// range) and the ns-2 default carrier-sense ratio (2.2x).
const (
	DefaultRxRange   = 250.0
	DefaultCSRange   = 550.0
	defaultPropSpeed = 3e8
)

// NewChannel creates an empty channel.
func NewChannel(sched *sim.Scheduler, rxRange, csRange float64) *Channel {
	if csRange < rxRange {
		csRange = rxRange
	}
	return &Channel{
		sched:     sched,
		RxRange:   rxRange,
		CSRange:   csRange,
		PropSpeed: defaultPropSpeed,
	}
}

// Reset detaches every radio and restores the channel to its
// NewChannel(sched, rxRange, csRange) state while keeping the expensive
// reusable storage: the spatial grid (reused when the next EnableGrid asks
// for the same geometry), the candidate and subscription bitsets, the
// arrival-batch and reception pools, and the Radio structs themselves
// (recycled through the next Attach calls). Arrival batches still in flight are drained
// first — their scheduled events must never fire again (the caller resets
// the scheduler alongside, as scenario.Context does), and draining drops
// the frame references so no retired frame stays reachable through the
// channel. A reset channel behaves bit-for-bit like a fresh one; it exists
// so batch executors (scenario.Context) can run thousands of simulations
// without rebuilding the medium each time.
func (c *Channel) Reset(rxRange, csRange float64) {
	if csRange < rxRange {
		csRange = rxRange
	}
	c.drainBatches()
	c.RxRange = rxRange
	c.CSRange = csRange
	c.PropSpeed = defaultPropSpeed
	c.DropFrame = nil
	if c.grid != nil {
		// Park the index: it must not be consulted while it still holds the
		// previous run's snapshots, but EnableGrid can reclaim its storage.
		c.spareGrid, c.grid = c.grid, nil
	}
	for i, r := range c.radios {
		*r = Radio{}
		c.spare = append(c.spare, r)
		c.radios[i] = nil
	}
	c.radios = c.radios[:0]
	c.subs = c.subs[:0]
	c.cand = c.cand[:0]
	for i := range c.movers {
		c.movers[i] = nil
	}
	c.movers = c.movers[:0]
	c.policyDirty = true
	c.slackBudget = 0
	c.slack = 0
	c.epoch = 0
	c.nextRefresh = 0
	c.exact = false
	c.linear = false
	c.unbatched = false
}

// Retire drains any in-flight arrival batches at run end, dropping their
// frame references and parking them for reuse. It must only be called once
// the run is dead: the batches' scheduled events are assumed never to fire
// again (the owning scenario resets the scheduler before any reuse).
// Idempotent.
func (c *Channel) Retire() { c.drainBatches() }

// drainBatches force-parks every in-flight batch.
func (c *Channel) drainBatches() {
	for len(c.inflight) > 0 {
		c.parkBatch(c.inflight[len(c.inflight)-1])
	}
}

// getBatch takes a parked batch (or allocates one), sizes its bitsets to
// the attached radios, and tracks it in flight. A pooled batch reallocates
// only when the radio count outgrows its storage, so a reused channel sizes
// each batch once.
func (c *Channel) getBatch() *arrivalBatch {
	var b *arrivalBatch
	if n := len(c.batchFree); n > 0 {
		b = c.batchFree[n-1]
		c.batchFree[n-1] = nil
		c.batchFree = c.batchFree[:n-1]
	} else {
		b = &arrivalBatch{}
	}
	if n := len(c.subs); len(b.cs) != n {
		if cap(b.words) < 3*n {
			b.words = make([]uint64, 3*n)
		}
		b.words = b.words[:3*n]
		b.cs, b.dec, b.drop = b.words[:n:n], b.words[n:2*n:2*n], b.words[2*n:]
	}
	b.ch = c
	b.idx = len(c.inflight)
	c.inflight = append(c.inflight, b)
	return b
}

// parkBatch removes a batch from the in-flight list (swap-remove), clears
// its frame reference and bitsets, and returns it to the free list with the
// bitset storage intact.
func (c *Channel) parkBatch(b *arrivalBatch) {
	last := len(c.inflight) - 1
	c.inflight[b.idx] = c.inflight[last]
	c.inflight[b.idx].idx = b.idx
	c.inflight[last] = nil
	c.inflight = c.inflight[:last]
	b.frame = nil
	b.live = 0
	b.n = 0
	b.phase = phaseSent
	clear(b.words)
	c.batchFree = append(c.batchFree, b)
}

// InflightBatches reports how many arrival batches are currently on the
// air (leak audits and tests).
func (c *Channel) InflightBatches() int { return len(c.inflight) }

// EnableGrid builds the receiver-lookup index over the given field. Call it
// before attaching radios (scenario builders) for a well-sized grid;
// channels that never call it self-configure from the radios' positions at
// the first transmission. cellSize <= 0 picks the carrier-sense range,
// which makes a range query touch a 3×3 cell block.
func (c *Channel) EnableGrid(bounds geo.Rect, cellSize float64) {
	if cellSize <= 0 {
		cellSize = c.CSRange
	}
	if cellSize <= 0 {
		// Degenerate zero-range channels must still build and run (nothing
		// will ever be in range); any positive cell size works.
		cellSize = 1
	}
	switch {
	case c.grid != nil && c.grid.Reset(bounds, cellSize):
		// Re-index in place below.
	case c.spareGrid != nil && c.spareGrid.Reset(bounds, cellSize):
		c.grid, c.spareGrid = c.spareGrid, nil
	default:
		c.grid = geo.NewGrid(bounds, cellSize)
	}
	now := c.sched.Now()
	for _, r := range c.radios {
		c.grid.Update(r.idx, r.positionAt(now))
	}
	c.policyDirty = true
}

// UseLinearScan switches Transmit between the grid-indexed receiver lookup
// (default) and the exhaustive scan over all attached radios. The two are
// observably identical; the linear path exists as the reference for
// equivalence and determinism tests.
func (c *Channel) UseLinearScan(on bool) { c.linear = on }

// UseUnbatchedArrivals switches delivery between the batched scheme
// (default: two scheduler events walk the decodable and subscribed radios
// of the arrival batch) and the reference scheme that schedules an
// individual first-bit and last-bit event per carrier-sensing receiver,
// keeps every radio's energy counter and delivers every energy edge
// whether subscribed or not. Switch before the run. The two are
// observably identical as long as listeners ignore the edges they have
// not subscribed to; the unbatched path exists, like UseLinearScan, purely
// as the reference for equivalence tests.
func (c *Channel) UseUnbatchedArrivals(on bool) { c.unbatched = on }

// Attach registers a radio for a node moving as mob, which must give the
// same point whenever asked for the same time. The model is passed as an
// interface rather than as a method value, which would cost an allocation
// per radio. The listener (the node's MAC) must be set before any
// transmission can reach the radio; it starts subscribed to energy edges.
func (c *Channel) Attach(id packet.NodeID, mob mobility.Model, lis Listener) *Radio {
	var r *Radio
	if n := len(c.spare); n > 0 {
		r = c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
	} else {
		r = &Radio{}
	}
	*r = Radio{
		ID:       id,
		mob:      mob,
		lis:      lis,
		ch:       c,
		idx:      int32(len(c.radios)),
		maxSpeed: math.Inf(1),
	}
	c.radios = append(c.radios, r)
	for len(c.subs)*64 < len(c.radios) {
		c.subs = append(c.subs, 0)
		c.cand = append(c.cand, 0)
	}
	c.subs.set(r.idx)
	if c.grid != nil {
		c.grid.Update(r.idx, r.positionAt(c.sched.Now()))
	}
	c.policyDirty = true
	return r
}

// Radios returns all attached radios (scenario introspection).
func (c *Channel) Radios() []*Radio { return c.radios }

// PositionOf returns the current position of a radio.
func (c *Channel) PositionOf(r *Radio) geo.Point { return r.positionAt(c.sched.Now()) }

// Busy reports whether the radio currently senses energy or is transmitting;
// exposed for the MAC's carrier-sense checks.
func (r *Radio) Busy() bool {
	if r.transmitting {
		return true
	}
	c := r.ch
	if c.unbatched || c.subs.has(r.idx) {
		return r.energy > 0
	}
	return c.sensing(r.idx) > 0
}

// SubscribeEnergy turns the listener's EnergyUp and EnergyDown calls on or
// off. Radios attach subscribed; a listener that acts on the edges only in
// some states (the MAC, while contending) subscribes just for those, which
// spares the batched walks every sense-only radio that would ignore them.
// Subscribing seeds the radio's energy counter from the transmissions in
// flight, so the edges that follow are exactly those of a counter kept all
// along. Busy is exact either way.
func (r *Radio) SubscribeEnergy(on bool) {
	c := r.ch
	if on == c.subs.has(r.idx) {
		return
	}
	if !on {
		c.subs[r.idx>>6] &^= 1 << (r.idx & 63)
		return
	}
	c.subs.set(r.idx)
	if !c.unbatched {
		r.energy = c.sensing(r.idx)
	}
}

// sensing counts the in-flight transmissions radio id currently senses.
func (c *Channel) sensing(id int32) int {
	n := 0
	for _, b := range c.inflight {
		if b.counts(id) {
			n++
		}
	}
	return n
}

// Transmitting reports whether the radio is currently sending.
func (r *Radio) Transmitting() bool { return r.transmitting }

// recomputePolicy derives the snapshot-refresh schedule from the attached
// radios' speed bounds: stationary radios are never refreshed, bounded
// radios on an epoch sized so drift stays under slackBudget, and any radio
// with an unknown bound forces exact (per-transmit) refresh.
func (c *Channel) recomputePolicy() {
	c.policyDirty = false
	c.movers = c.movers[:0]
	maxKnown := 0.0
	c.exact = false
	for _, r := range c.radios {
		if r.maxSpeed == 0 {
			continue
		}
		c.movers = append(c.movers, r)
		if math.IsInf(r.maxSpeed, 1) {
			c.exact = true
		} else if r.maxSpeed > maxKnown {
			maxKnown = r.maxSpeed
		}
	}
	if c.slackBudget <= 0 {
		c.slackBudget = 0.1 * c.CSRange
	}
	switch {
	case c.exact || maxKnown == 0:
		// Exact refresh (or nothing moves): queries need no inflation.
		c.slack = 0
		c.epoch = 0
	default:
		c.slack = c.slackBudget
		c.epoch = sim.Seconds(c.slackBudget / maxKnown)
	}
	c.nextRefresh = c.sched.Now() // force a refresh at the next transmit
}

// refreshMovers re-snapshots every non-stationary radio into the grid.
func (c *Channel) refreshMovers(now sim.Time) {
	for _, r := range c.movers {
		c.grid.Update(r.idx, r.positionAt(now))
	}
}

// autoGrid self-configures the index for channels built without EnableGrid
// (unit tests, ad-hoc topologies): bounds from the radios' current
// positions. Radios may later wander outside; the grid clamps them to edge
// cells, which affects only query cost, never the result.
func (c *Channel) autoGrid(now sim.Time) {
	if len(c.radios) == 0 {
		c.EnableGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0)
		return
	}
	p0 := c.radios[0].positionAt(now)
	b := geo.Rect{MinX: p0.X, MinY: p0.Y, MaxX: p0.X, MaxY: p0.Y}
	for _, r := range c.radios[1:] {
		p := r.positionAt(now)
		b.MinX = math.Min(b.MinX, p.X)
		b.MinY = math.Min(b.MinY, p.Y)
		b.MaxX = math.Max(b.MaxX, p.X)
		b.MaxY = math.Max(b.MaxY, p.Y)
	}
	c.EnableGrid(b, c.CSRange)
}

// Transmit puts a frame on the air for the given airtime. The caller (MAC)
// is responsible for medium-access rules; the channel only models physics.
// The sender's own listener receives no callbacks for its own frame; the MAC
// schedules its own tx-done event.
func (c *Channel) Transmit(tx *Radio, f *packet.Frame, airtime sim.Duration) {
	now := c.sched.Now()
	tx.transmitting = true
	tx.FramesSent++

	// Transmitting corrupts any decode in progress at the sender
	// (half duplex).
	if tx.rx != nil {
		tx.rx.collided = true
	}

	txPos := tx.positionAt(now)
	cs2 := c.CSRange * c.CSRange
	rx2 := c.RxRange * c.RxRange
	b := c.getBatch()
	b.frame = f
	maxD2 := 0.0

	if c.linear {
		for _, rcv := range c.radios {
			if rcv == tx {
				continue
			}
			maxD2 = c.hear(b, rcv, rcv.positionAt(now), txPos, cs2, rx2, maxD2)
		}
	} else {
		if c.grid == nil {
			c.autoGrid(now)
		}
		if c.policyDirty {
			c.recomputePolicy()
		}
		if c.exact || now >= c.nextRefresh {
			c.refreshMovers(now)
			if !c.exact {
				c.nextRefresh = now.Add(c.epoch)
			}
		}
		// Candidate order must match the linear scan (= attach order): the
		// scheduler breaks timestamp ties by insertion sequence, and
		// DropFrame sees receivers in fill order, so the order receivers
		// are heard in is observable. Grid ids are radio indices, so
		// reading the candidate bitset lowest bit first is attach order.
		c.grid.MarkWithinRange(txPos, c.CSRange+c.slack, c.cand)
		for w, word := range c.cand {
			if word == 0 {
				continue
			}
			c.cand[w] = 0
			for word != 0 {
				id := int32(w<<6 + bits.TrailingZeros64(word))
				word &= word - 1
				rcv := c.radios[id]
				if rcv == tx {
					continue
				}
				// The snapshot may lag a mover by up to the slack margin, so
				// movers are re-checked at their exact current position.
				// Stationary radios' snapshots are exact.
				var p geo.Point
				if rcv.maxSpeed == 0 {
					p, _ = c.grid.Position(id)
				} else {
					p = rcv.positionAt(now)
				}
				maxD2 = c.hear(b, rcv, p, txPos, cs2, rx2, maxD2)
			}
		}
	}

	if b.n == 0 {
		c.parkBatch(b) // empty neighbourhood: no events at all
	} else {
		prop := sim.Duration(0)
		if c.PropSpeed > 0 {
			prop = sim.Seconds(math.Sqrt(maxD2) / c.PropSpeed)
		}
		if c.unbatched {
			b.live = b.n
			for w, word := range b.cs {
				for word != 0 {
					id := w<<6 + bits.TrailingZeros64(word)
					word &= word - 1
					c.sched.After(prop, b, unbatchedArgBase+2*id)
					c.sched.After(prop+airtime, b, unbatchedArgBase+2*id+1)
				}
			}
		} else {
			b.live = 1
			c.sched.After(prop, b, batchStartArg)
			c.sched.After(prop+airtime, b, batchEndArg)
		}
	}

	c.sched.After(airtime, tx, radioTxDone)
}

// hear distance-checks one candidate receiver at position p against the
// transmitter's exact position and, if it is in carrier-sense range, enters
// it in the batch's bitsets, consulting DropFrame if it can decode. Returns
// the running maximum squared distance over all in-CS receivers — the
// batch's common propagation distance.
func (c *Channel) hear(b *arrivalBatch, rcv *Radio, p, txPos geo.Point, cs2, rx2, maxD2 float64) float64 {
	d2 := p.DistanceSqTo(txPos)
	if d2 > cs2 {
		return maxD2
	}
	b.cs.set(rcv.idx)
	b.n++
	if d2 <= rx2 {
		b.dec.set(rcv.idx)
		if c.DropFrame != nil && c.DropFrame(b.frame, rcv.ID) {
			b.drop.set(rcv.idx)
		}
	}
	if d2 > maxD2 {
		maxD2 = d2
	}
	return maxD2
}

// arriveStart is the reference (unbatched) first-bit delivery: the energy
// counter and edge regardless of subscription, then the decode start.
func (c *Channel) arriveStart(rcv *Radio, f *packet.Frame, decodable, drop bool) {
	rcv.energy++
	if rcv.energy == 1 && rcv.lis != nil {
		rcv.lis.EnergyUp()
	}
	if decodable {
		c.beginDecode(rcv, f, drop)
	}
}

// arriveEnd is the reference (unbatched) last-bit delivery.
func (c *Channel) arriveEnd(rcv *Radio, f *packet.Frame, decodable bool) {
	rcv.energy--
	if decodable {
		c.endDecode(rcv, f)
	}
	if rcv.energy == 0 && rcv.lis != nil {
		rcv.lis.EnergyDown()
	}
}

// beginDecode starts decoding f at rcv unless it is sending (half duplex)
// or already decoding, in which case both frames are lost.
func (c *Channel) beginDecode(rcv *Radio, f *packet.Frame, drop bool) {
	if rcv.transmitting {
		return // half duplex: cannot begin decode while sending
	}
	if rcv.rx != nil {
		// Overlapping decodable frames: both are lost.
		rcv.rx.collided = true
		rcv.FramesCollided++
		return
	}
	rx := c.recPool.Get()
	rx.frame = f
	rx.collided = drop
	rcv.rx = rx
}

// endDecode completes rcv's decode of f, if it is the frame being decoded,
// and hands it to the listener.
func (c *Channel) endDecode(rcv *Radio, f *packet.Frame) {
	if rcv.rx == nil || rcv.rx.frame != f {
		return
	}
	rx := rcv.rx
	rcv.rx = nil
	ok := !rx.collided
	c.recPool.Put(rx)
	if ok {
		rcv.FramesDecoded++
	} else {
		rcv.FramesCollided++
	}
	if rcv.lis != nil {
		rcv.lis.RxEnd(f, ok)
	}
}

// MaxPropDelay bounds the propagation delay of any delivery this channel
// can schedule (the carrier-sense range at the propagation speed). The
// MAC uses it as the quarantine hold when releasing frames and broadcast
// payloads whose arrivals may still be in flight.
func (c *Channel) MaxPropDelay() sim.Duration {
	if c.PropSpeed <= 0 {
		return 0
	}
	return sim.Seconds(c.CSRange / c.PropSpeed)
}

// InRange reports whether two radios can currently decode each other's
// frames; used by scenario builders and tests for connectivity checks.
func (c *Channel) InRange(a, b *Radio) bool {
	now := c.sched.Now()
	return a.positionAt(now).DistanceSqTo(b.positionAt(now)) <= c.RxRange*c.RxRange
}
