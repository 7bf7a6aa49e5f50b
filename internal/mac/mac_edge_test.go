package mac

import (
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

func TestContentionWindowDoublesAndResets(t *testing.T) {
	// Receiver out of range: every RTS retry doubles cw up to the limit,
	// then the failed job resets cw to CWMin.
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 900, Y: 0}}, Default80211b())
	m := r.macs[0]
	m.Send(r.dataPacket(0, 1, 1040), 1)
	r.sched.RunUntil(sim.Time(10 * sim.Second))
	if m.cw != Default80211b().CWMin {
		t.Fatalf("cw after failed job = %d, want reset to CWMin", m.cw)
	}
	if m.Stats.LinkFailures != 1 {
		t.Fatalf("link failures = %d", m.Stats.LinkFailures)
	}
}

func TestSequentialQueueDrain(t *testing.T) {
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Default80211b())
	const n = 20
	for i := 0; i < n; i++ {
		r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
	}
	r.sched.RunUntil(sim.Time(sim.Second))
	if got := len(r.uppers[1].delivered); got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	if r.macs[0].QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", r.macs[0].QueueLen())
	}
}

func TestMutualSimultaneousSends(t *testing.T) {
	// Both stations want to send to each other at the same instant; CSMA
	// must eventually deliver both directions.
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Default80211b())
	r.sched.At(0, do(func() {
		r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
		r.macs[1].Send(r.dataPacket(1, 0, 1040), 0)
	}), 0)
	r.sched.RunUntil(sim.Time(2 * sim.Second))
	if len(r.uppers[0].delivered) != 1 || len(r.uppers[1].delivered) != 1 {
		t.Fatalf("mutual delivery: %d / %d",
			len(r.uppers[0].delivered), len(r.uppers[1].delivered))
	}
}

func TestDupCacheDistinguishesNewFrames(t *testing.T) {
	// Two DIFFERENT packets must both be delivered even though they come
	// from the same sender back to back (dup suppression must key on the
	// retry flag + sequence, not just the sender).
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Default80211b())
	r.macs[0].Send(r.dataPacket(0, 1, 500), 1)
	r.macs[0].Send(r.dataPacket(0, 1, 500), 1)
	r.sched.RunUntil(sim.Time(sim.Second))
	if len(r.uppers[1].delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(r.uppers[1].delivered))
	}
	if r.macs[1].Stats.Duplicates != 0 {
		t.Fatalf("false duplicate detection: %d", r.macs[1].Stats.Duplicates)
	}
}

func TestRetryStatsCount(t *testing.T) {
	// Drop the first CTS so exactly one short retry happens.
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Default80211b())
	dropped := false
	r.ch.DropFrame = func(f *packet.Frame, to packet.NodeID) bool {
		if f.Kind == packet.FrameCTS && !dropped {
			dropped = true
			return true
		}
		return false
	}
	r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
	r.sched.RunUntil(sim.Time(sim.Second))
	if len(r.uppers[1].delivered) != 1 {
		t.Fatal("not delivered after CTS loss")
	}
	if r.macs[0].Stats.Retries == 0 {
		t.Fatal("retry not counted")
	}
	if r.macs[0].Stats.FramesSent[packet.FrameRTS] != 2 {
		t.Fatalf("RTS count = %d, want 2", r.macs[0].Stats.FramesSent[packet.FrameRTS])
	}
}

func TestBroadcastUsesBasicRate(t *testing.T) {
	cfg := Default80211b()
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, cfg)
	var start, end sim.Time
	r.macs[0].OnSend = func(f *packet.Frame) { start = r.sched.Now() }
	r.uppersOnDeliver(1, func() { end = r.sched.Now() })

	p := &packet.Packet{UID: r.uids.Next(), Kind: packet.KindRREQ, Size: 64, Src: 0, Dst: 1}
	r.macs[0].Send(p, packet.Broadcast)
	r.sched.RunUntil(sim.Time(sim.Second))

	if start == 0 || end == 0 {
		t.Fatal("broadcast not observed")
	}
	airtime := end - start
	// At the 2 Mb/s basic rate: PLCP 192us + (64+28)*8/2e6 = 560us, plus
	// sub-microsecond propagation.
	want := cfg.PLCPOverhead + sim.Seconds(float64((64+28)*8)/cfg.BasicRate)
	if airtime < sim.Time(want) || airtime > sim.Time(want)+sim.Time(5*sim.Microsecond) {
		t.Fatalf("broadcast airtime = %v, want ~%v", airtime, want)
	}
}

// uppersOnDeliver lets a test observe delivery time on a rig node.
func (r *rig) uppersOnDeliver(i int, fn func()) {
	up := r.uppers[i]
	orig := up
	_ = orig
	r.macs[i].up = &deliverHook{inner: up, fn: fn}
}

type deliverHook struct {
	inner Upper
	fn    func()
}

func (d *deliverHook) Deliver(p *packet.Packet, from packet.NodeID) {
	d.fn()
	d.inner.Deliver(p, from)
}

func (d *deliverHook) LinkFailed(p *packet.Packet, next packet.NodeID) {
	d.inner.LinkFailed(p, next)
}

func TestBackoffBankingAcrossPauses(t *testing.T) {
	// A station that freezes its countdown during foreign traffic must
	// not reset it to the full draw: total idle time spent in backoff is
	// bounded by CWMin slots plus DIFS per resume.
	cfg := Default80211b()
	cfg.CWMin = 15
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}, cfg)

	// Node 2 sends three spaced broadcasts creating busy/idle cycles.
	for i := 0; i < 3; i++ {
		i := i
		r.sched.At(sim.Time(i)*sim.Time(2*sim.Millisecond), do(func() {
			p := &packet.Packet{UID: r.uids.Next(), Kind: packet.KindData, Size: 1000, Src: 2, Dst: 0}
			r.macs[2].Send(p, packet.Broadcast)
		}), 0)
	}
	var sentAt sim.Time
	r.macs[0].OnSend = func(f *packet.Frame) {
		if sentAt == 0 {
			sentAt = r.sched.Now()
		}
	}
	r.sched.At(sim.Time(100*sim.Microsecond), do(func() {
		r.macs[0].Send(r.dataPacket(0, 1, 40), 1)
	}), 0)
	r.sched.RunUntil(sim.Time(sim.Second))
	if sentAt == 0 {
		t.Fatal("never transmitted")
	}
	// Three 4.2ms broadcasts end around 13ms; with banking the station
	// transmits shortly after the last busy period, well before 20ms.
	if sentAt > sim.Time(20*sim.Millisecond) {
		t.Fatalf("transmitted at %v; backoff appears to restart from scratch", sentAt)
	}
}
