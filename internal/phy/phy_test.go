package phy

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/mobility"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// do adapts a closure to sim.Task for ad-hoc test events.
type do func()

func (f do) Run(int) { f() }

// recorder is a test Listener capturing callbacks.
type recorder struct {
	ups, downs int
	frames     []*packet.Frame
	oks        []bool
}

func (r *recorder) EnergyUp()   { r.ups++ }
func (r *recorder) EnergyDown() { r.downs++ }
func (r *recorder) RxEnd(f *packet.Frame, ok bool) {
	r.frames = append(r.frames, f)
	r.oks = append(r.oks, ok)
}

func fixed(x, y float64) mobility.Model {
	return &mobility.Static{P: geo.Point{X: x, Y: y}}
}

// posFunc is a test trajectory given by a position function.
type posFunc func(sim.Time) geo.Point

func (f posFunc) PositionAt(t sim.Time) geo.Point { return f(t) }

func testFrame(from, to packet.NodeID) *packet.Frame {
	return &packet.Frame{UID: 1, Kind: packet.FrameData, TxFrom: from, TxTo: to}
}

func TestDeliveryWithinRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(200, 0), rb)

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if len(rb.frames) != 1 || !rb.oks[0] {
		t.Fatalf("frames=%d oks=%v", len(rb.frames), rb.oks)
	}
	if rb.ups != 1 || rb.downs != 1 {
		t.Fatalf("energy transitions: up=%d down=%d", rb.ups, rb.downs)
	}
	if a.FramesSent != 1 {
		t.Fatalf("sender stats: %d", a.FramesSent)
	}
}

func TestNoDeliveryBeyondRxRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(400, 0), rb) // in CS ring, beyond RX

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if len(rb.frames) != 0 {
		t.Fatal("decoded beyond RX range")
	}
	if rb.ups != 1 || rb.downs != 1 {
		t.Fatalf("CS ring should sense energy: up=%d down=%d", rb.ups, rb.downs)
	}
}

func TestNoEnergyBeyondCSRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(600, 0), rb)

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if rb.ups != 0 || len(rb.frames) != 0 {
		t.Fatal("activity sensed beyond CS range")
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	// Two senders both in range of the victim; they can't hear each other
	// is irrelevant here — the channel doesn't enforce MAC rules.
	a := c.Attach(0, fixed(0, 0), &recorder{})
	b := c.Attach(1, fixed(400, 0), &recorder{})
	victim := &recorder{}
	c.Attach(2, fixed(200, 0), victim)

	s.At(0, do(func() { c.Transmit(a, testFrame(0, 2), sim.Millisecond) }), 0)
	s.At(sim.Time(100*sim.Microsecond), do(func() {
		c.Transmit(b, testFrame(1, 2), sim.Millisecond)
	}), 0)
	s.Run()

	// The first frame is delivered corrupted; the second one never began
	// decoding (receiver was mid-decode) so it is not delivered at all.
	if len(victim.frames) != 1 {
		t.Fatalf("deliveries = %d, want 1 (the corrupted first frame)", len(victim.frames))
	}
	if victim.oks[0] {
		t.Fatal("overlapping frames not corrupted")
	}
}

func TestNoCollisionWhenSequential(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	victim := &recorder{}
	c.Attach(1, fixed(100, 0), victim)

	s.At(0, do(func() { c.Transmit(a, testFrame(0, 1), sim.Millisecond) }), 0)
	s.At(sim.Time(2*sim.Millisecond), do(func() {
		c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	}), 0)
	s.Run()

	if len(victim.frames) != 2 || !victim.oks[0] || !victim.oks[1] {
		t.Fatalf("sequential frames corrupted: %v", victim.oks)
	}
	if victim.ups != 2 || victim.downs != 2 {
		t.Fatalf("energy transitions: %d/%d", victim.ups, victim.downs)
	}
}

func TestHalfDuplexNoDecodeWhileTransmitting(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	b := c.Attach(1, fixed(100, 0), rb)

	// b starts transmitting first; a's frame arrives while b is sending.
	s.At(0, do(func() { c.Transmit(b, testFrame(1, 0), 2*sim.Millisecond) }), 0)
	s.At(sim.Time(500*sim.Microsecond), do(func() {
		c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	}), 0)
	s.Run()

	if len(rb.frames) != 0 {
		t.Fatal("decoded a frame while transmitting (half duplex violated)")
	}
}

func TestTransmitCorruptsOwnDecode(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	b := c.Attach(1, fixed(100, 0), rb)

	// a's frame is arriving at b; midway through, b transmits.
	s.At(0, do(func() { c.Transmit(a, testFrame(0, 1), 2*sim.Millisecond) }), 0)
	s.At(sim.Time(sim.Millisecond), do(func() {
		c.Transmit(b, testFrame(1, 0), 100*sim.Microsecond)
	}), 0)
	s.Run()

	if len(rb.frames) != 1 || rb.oks[0] {
		t.Fatalf("decode-in-progress must be corrupted by own tx: frames=%d oks=%v",
			len(rb.frames), rb.oks)
	}
}

func TestPromiscuousDelivery(t *testing.T) {
	// Frames are delivered to ALL radios in range, not just the addressee;
	// MAC-level filtering happens above. This is what the eavesdropper and
	// NAV depend on.
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	eaves := &recorder{}
	c.Attach(2, fixed(0, 200), eaves)

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if len(eaves.frames) != 1 || !eaves.oks[0] {
		t.Fatal("third party did not overhear the frame")
	}
}

func TestCommonPropagationDelay(t *testing.T) {
	// One transmission delivers to its whole neighbourhood at a single
	// propagation delay — the farthest carrier-sensing radio's distance
	// over PropSpeed — and walks the receivers in radio-ID order.
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	var order []packet.NodeID
	var nearAt, farAt sim.Time
	near := &hookListener{onRx: func() { nearAt = s.Now(); order = append(order, 1) }}
	far := &hookListener{onRx: func() { farAt = s.Now(); order = append(order, 2) }}
	c.Attach(1, fixed(10, 0), near)
	c.Attach(2, fixed(249, 0), far)

	c.Transmit(a, testFrame(0, packet.Broadcast), sim.Millisecond)
	s.Run()

	want := sim.Time(0).Add(sim.Millisecond + sim.Seconds(249.0/c.PropSpeed))
	if nearAt != want || farAt != want {
		t.Fatalf("deliveries at %v and %v, want common %v", nearAt, farAt, want)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v, want radio-ID order [1 2]", order)
	}
}

type hookListener struct{ onRx func() }

func (h *hookListener) EnergyUp()                      {}
func (h *hookListener) EnergyDown()                    {}
func (h *hookListener) RxEnd(f *packet.Frame, ok bool) { h.onRx() }

func TestDropFrameInjection(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(100, 0), rb)
	c.DropFrame = func(f *packet.Frame, to packet.NodeID) bool { return to == 1 }

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if len(rb.frames) != 1 || rb.oks[0] {
		t.Fatal("injected drop did not corrupt the frame")
	}
}

func TestInRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), nil)
	b := c.Attach(1, fixed(250, 0), nil)
	d := c.Attach(2, fixed(251, 0), nil)
	if !c.InRange(a, b) {
		t.Fatal("exact range boundary should be in range")
	}
	if c.InRange(a, d) {
		t.Fatal("251m should be out of range")
	}
}

func TestCSRangeClampedToRxRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 100) // nonsensical: CS < RX, must be clamped
	if c.CSRange < c.RxRange {
		t.Fatalf("CSRange=%v < RxRange=%v", c.CSRange, c.RxRange)
	}
	_ = s
}

func TestBusyReflectsEnergy(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	b := c.Attach(1, fixed(100, 0), &recorder{})

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	if !a.Transmitting() || !a.Busy() {
		t.Fatal("sender not busy during tx")
	}
	// After propagation delay, b senses energy.
	s.RunUntil(sim.Time(500 * sim.Microsecond))
	if !b.Busy() {
		t.Fatal("receiver not busy mid-frame")
	}
	s.Run()
	if a.Busy() || b.Busy() {
		t.Fatal("radios busy after frame end")
	}
}

func TestZeroRangeChannelStillRuns(t *testing.T) {
	// A degenerate zero-range channel must build its grid and run (nothing
	// is ever in range) rather than panic on a zero cell size.
	s := sim.NewScheduler()
	c := NewChannel(s, 0, 0)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(1, 0), rb)
	c.EnableGrid(geo.Field(10, 10), 0)
	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()
	if len(rb.frames) != 0 || rb.ups != 0 {
		t.Fatalf("zero-range channel delivered: frames=%d ups=%d", len(rb.frames), rb.ups)
	}
}

func TestMovingNodeOutOfRangeNotReached(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	// Node starts far away and "teleports" close only after the frame
	// was sent — range is evaluated at transmission start.
	pos := posFunc(func(t sim.Time) geo.Point {
		if t < sim.Time(sim.Millisecond) {
			return geo.Point{X: 1000, Y: 0}
		}
		return geo.Point{X: 10, Y: 0}
	})
	c.Attach(1, pos, rb)

	s.At(0, do(func() { c.Transmit(a, testFrame(0, 1), sim.Millisecond) }), 0)
	s.Run()
	if len(rb.frames) != 0 {
		t.Fatal("frame reached a node that was out of range at tx start")
	}
}

func TestChannelResetBehavesLikeFresh(t *testing.T) {
	// The same two-node exchange, run on a fresh channel and on a channel
	// that already lived through a different topology and was Reset, must
	// be observably identical — Reset is the contract scenario.Context
	// leans on for bit-identical batch reuse.
	run := func(s *sim.Scheduler, c *Channel) (frames int, ok bool, sent uint64) {
		a := c.Attach(0, fixed(0, 0), &recorder{})
		rb := &recorder{}
		c.Attach(1, fixed(200, 0), rb)
		c.Transmit(a, testFrame(0, 1), sim.Millisecond)
		s.Run()
		return len(rb.frames), len(rb.oks) > 0 && rb.oks[0], a.FramesSent
	}

	sFresh := sim.NewScheduler()
	cFresh := NewChannel(sFresh, 250, 550)
	cFresh.EnableGrid(geo.Rect{MaxX: 1000, MaxY: 1000}, 0)
	wantFrames, wantOK, wantSent := run(sFresh, cFresh)

	s := sim.NewScheduler()
	c := NewChannel(s, 100, 100) // different ranges on purpose
	c.EnableGrid(geo.Rect{MaxX: 1000, MaxY: 1000}, 0)
	c.DropFrame = func(*packet.Frame, packet.NodeID) bool { return true }
	for i := 0; i < 5; i++ {
		c.Attach(packet.NodeID(i), fixed(float64(100*i), 50), &recorder{})
	}
	c.Transmit(c.Radios()[0], testFrame(0, 1), sim.Millisecond)
	s.Run()

	s.Reset()
	c.Reset(250, 550)
	if len(c.Radios()) != 0 {
		t.Fatalf("reset channel keeps %d radios attached", len(c.Radios()))
	}
	c.EnableGrid(geo.Rect{MaxX: 1000, MaxY: 1000}, 0)
	gotFrames, gotOK, gotSent := run(s, c)

	if gotFrames != wantFrames || gotOK != wantOK || gotSent != wantSent {
		t.Fatalf("reset channel: frames=%d ok=%v sent=%d, fresh: %d/%v/%d",
			gotFrames, gotOK, gotSent, wantFrames, wantOK, wantSent)
	}
}

func TestChannelResetRecyclesRadios(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550)
	old := make(map[*Radio]bool)
	for i := 0; i < 4; i++ {
		old[c.Attach(packet.NodeID(i), fixed(float64(i), 0), &recorder{})] = true
	}
	c.Reset(250, 550)
	recycled := 0
	for i := 0; i < 4; i++ {
		r := c.Attach(packet.NodeID(i), fixed(float64(i), 0), &recorder{})
		if old[r] {
			recycled++
		}
		if r.FramesSent != 0 || r.Busy() {
			t.Fatal("recycled radio leaked state")
		}
	}
	if recycled != 4 {
		t.Fatalf("recycled %d of 4 radio structs", recycled)
	}
}

// orderLog is a Listener that appends its radio index to a shared log on
// every RxEnd, exposing the order the channel delivers a batch in.
type orderLog struct {
	idx int
	log *[]int
}

func (o orderLog) EnergyUp()                 {}
func (o orderLog) EnergyDown()               {}
func (o orderLog) RxEnd(*packet.Frame, bool) { *o.log = append(*o.log, o.idx) }

// The grid path must hand receivers to the batch in attach (radio-ID)
// order, exactly like the linear scan: the channel no longer sorts, so
// this rests on geo.Grid's ascending-ID contract. Radios are scattered so
// that cell order and ID order disagree, and there are more than 64 of
// them so the order crosses a bitset word boundary.
func TestGridDeliversInAttachOrder(t *testing.T) {
	deliveries := func(linear bool) []int {
		s := sim.NewScheduler()
		c := NewChannel(s, 250, 550)
		c.EnableGrid(geo.Field(500, 500), 50)
		c.UseLinearScan(linear)
		var log []int
		var tx *Radio
		for i := 0; i < 150; i++ {
			// A deterministic scramble of the positions over the field.
			x, y := float64(i*137%500), float64(i*71%500)
			r := c.Attach(packet.NodeID(i), fixed(x, y), orderLog{idx: i, log: &log})
			r.SetMaxSpeed(0)
			if i == 75 {
				tx = r
			}
		}
		c.Transmit(tx, testFrame(75, packet.Broadcast), sim.Millisecond)
		s.Run()
		return log
	}
	grid, linear := deliveries(false), deliveries(true)
	if len(grid) < 100 {
		t.Fatalf("only %d receivers decoded; the field is too sparse to test order", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("grid delivered out of attach order at %d: %v", i, grid)
		}
	}
	if !slices.Equal(grid, linear) {
		t.Fatalf("grid and linear delivery orders differ:\ngrid   %v\nlinear %v", grid, linear)
	}
}

// subListener logs, for one radio, the energy edges it sees while it is
// subscribed and every frame it decodes, each with the radio's Busy()
// reading; onUp and onRx let a test script subscription changes from
// inside the first EnergyUp and the first RxEnd.
type subListener struct {
	id         int
	r          *Radio
	sub        bool
	s          *sim.Scheduler
	log        *[]string
	onUp, onRx func()
}

func (l *subListener) note(what string) {
	*l.log = append(*l.log, fmt.Sprintf("%d %s r%d busy=%v", l.s.Now(), what, l.id, l.r.Busy()))
}

func (l *subListener) subscribe(on bool) {
	l.sub = on
	l.r.SubscribeEnergy(on)
}

func (l *subListener) EnergyUp() {
	if l.sub {
		l.note("up")
		if l.onUp != nil {
			l.onUp()
			l.onUp = nil
		}
	}
}

func (l *subListener) EnergyDown() {
	if l.sub {
		l.note("down")
	}
}

func (l *subListener) RxEnd(*packet.Frame, bool) {
	l.note("rx")
	if l.onRx != nil {
		l.onRx()
		l.onRx = nil
	}
}

// A listener that subscribes inside RxEnd, in the middle of a last-bit
// walk, must see the same Busy() readings and the same edges as with the
// per-radio counters of the unbatched reference, which keeps every
// counter and delivers every edge (the listener drops those it has not
// subscribed to). The same holds for subscriptions made inside EnergyUp,
// in the middle of a first-bit walk. Radios 0 and 5 transmit overlapping
// frames. Inside radio 3's EnergyUp for the first frame, radios 2 (already
// walked) and 4 (not yet walked) subscribe. Inside radio 7's RxEnd for
// that frame, radio 7 subscribes itself, radio 1 (already walked) and
// radio 8 (not yet walked, still sensing the second frame) subscribe, and
// radio 3 unsubscribes. Busy() of every radio, subscribed or not, is
// sampled throughout.
func TestSubscribeInsideLastBitWalkMatchesCounters(t *testing.T) {
	run := func(unbatched bool) []string {
		s := sim.NewScheduler()
		c := NewChannel(s, 250, 550)
		c.UseUnbatchedArrivals(unbatched)
		var log []string
		xs := []float64{0, 100, 150, 300, 500, 900, 700, 200, 520}
		ls := make([]*subListener, len(xs))
		for i, x := range xs {
			ls[i] = &subListener{id: i, s: s, log: &log}
			ls[i].r = c.Attach(packet.NodeID(i), fixed(x, 0), ls[i])
			ls[i].subscribe(i == 3 || i == 5)
		}
		ls[3].onUp = func() {
			ls[2].subscribe(true)
			ls[4].subscribe(true)
		}
		ls[7].onRx = func() {
			ls[7].subscribe(true)
			ls[1].subscribe(true)
			ls[8].subscribe(true)
			ls[3].subscribe(false)
		}
		send := func(at sim.Duration, tx int) {
			s.At(sim.Time(at), do(func() {
				c.Transmit(ls[tx].r, testFrame(packet.NodeID(tx), packet.Broadcast), sim.Millisecond)
			}), 0)
		}
		send(0, 0)
		send(500*sim.Microsecond, 5)
		send(2*sim.Millisecond, 0)
		for at := sim.Duration(0); at < 4*sim.Millisecond; at += 50 * sim.Microsecond {
			s.At(sim.Time(at), do(func() {
				busy := make([]bool, len(ls))
				for i, l := range ls {
					busy[i] = l.r.Busy()
				}
				log = append(log, fmt.Sprintf("%d busy %v", s.Now(), busy))
			}), 0)
		}
		s.Run()
		return log
	}
	batched, reference := run(false), run(true)
	if !slices.Equal(batched, reference) {
		t.Fatalf("batched walk diverged from per-radio counters:\nbatched:\n%s\nreference:\n%s",
			strings.Join(batched, "\n"), strings.Join(reference, "\n"))
	}
	// The scripted cases must actually have happened: the first frame's
	// falling edges at radio 2 (seeded mid first-bit walk) and radio 7
	// (subscribed in its own RxEnd), radio 4's rising edge (subscribed
	// ahead of the walk), and radio 8's falling edge once the second frame
	// ends.
	for _, want := range []string{
		"1001733 down r2 busy=false", "1001733 down r7 busy=false",
		"1733 up r4 busy=true", "1501333 down r8 busy=false",
	} {
		if !slices.Contains(batched, want) {
			t.Fatalf("no %q in the log:\n%s", want, strings.Join(batched, "\n"))
		}
	}
}
