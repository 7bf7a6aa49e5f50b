package mac

import (
	"reflect"
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// macView is everything an energy edge could disturb in one MAC.
type macView struct {
	state                            jobState
	cur, ctsJob                      *txJob
	queue                            []*txJob
	difs, backoff, timeout, navTimer sim.TaskHandle
	nav, backoffStart                sim.Time
	cw, backoffSlots, responding     int
	seqCounter                       uint16
	schedLen                         int
	scheduled                        uint64
}

func viewOf(m *Mac) macView {
	return macView{
		state: m.state, cur: m.cur, ctsJob: m.ctsJob,
		queue: append([]*txJob(nil), m.queue...),
		difs:  m.difsEvent, backoff: m.backoffEvent, timeout: m.timeoutEvent, navTimer: m.navEvent,
		nav: m.nav, backoffStart: m.backoffStart,
		cw: m.cw, backoffSlots: m.backoffSlots, responding: m.responding,
		seqCounter: m.seqCounter,
		schedLen:   m.sched.Len(), scheduled: m.sched.Scheduled(),
	}
}

// The PHY delivers energy edges to a MAC only while it is in stContend
// (setState subscribes the radio exactly then). That is sound only if
// EnergyUp and EnergyDown change nothing in every other state: not the
// state, the queue, the armed timers, the scheduler's length or next
// sequence number, nor the backoff RNG. This drives a busy rig — RTS and
// basic unicasts, broadcasts, a hidden terminal, an unreachable next hop,
// queue overflow and injected losses — and after every event delivers
// both edges to every MAC outside stContend, checking its view is
// unchanged; a twin run without the extra edges must then agree on the
// event count and on every MAC's next backoff draw. After every event it
// also checks that stIdle implies an empty queue, which is what makes
// EnergyDown's reconsider a no-op in stIdle.
func TestEnergyEdgesInertOutsideContention(t *testing.T) {
	run := func(inject bool) (draws []int, executed uint64, seen map[jobState]bool) {
		cfg := Default80211b()
		cfg.QueueCap = 4
		r := newRig([]geo.Point{
			{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}, {X: 440, Y: 0}, {X: 50, Y: 80}, {X: 900, Y: 0},
		}, cfg)
		r.ch.DropFrame = func(f *packet.Frame, _ packet.NodeID) bool { return f.UID%7 == 0 }
		idleImpliesEmpty := func(when string) {
			for i, m := range r.macs {
				if m.state == stIdle && (len(m.queue) != 0 || m.cur != nil) {
					t.Fatalf("%s: mac %d idle with cur=%v and %d queued", when, i, m.cur != nil, len(m.queue))
				}
			}
		}
		send := func(at sim.Duration, from, to packet.NodeID, size int) {
			r.sched.At(sim.Time(at), do(func() {
				dst := to
				if to == packet.Broadcast {
					dst = 0
				}
				r.macs[from].Send(r.dataPacket(from, dst, size), to)
				idleImpliesEmpty("after Send")
			}), 0)
		}
		for k := 0; k < 6; k++ {
			at := sim.Duration(k) * 3 * sim.Millisecond
			send(at, 0, 1, 1040)
			send(at, 3, 2, 1040) // hidden from node 0
			send(at+200*sim.Microsecond, 2, 1, 40)
			send(at+500*sim.Microsecond, 4, packet.Broadcast, 200)
			send(at+700*sim.Microsecond, 1, 4, 600)
			send(at+700*sim.Microsecond, 1, 4, 600)
		}
		send(sim.Millisecond, 0, 5, 1040) // out of range: retries, link failure
		r.sched.At(sim.Time(8*sim.Millisecond), do(func() {
			r.macs[1].DropWhere(func(_ *packet.Packet, next packet.NodeID) bool { return next == 4 })
			idleImpliesEmpty("after DropWhere")
		}), 0)

		seen = map[jobState]bool{}
		for r.sched.Now() < sim.Time(sim.Second) && r.sched.Step() {
			idleImpliesEmpty("after an event")
			if !inject {
				continue
			}
			for i, m := range r.macs {
				if m.state == stContend {
					continue
				}
				seen[m.state] = true
				before := viewOf(m)
				m.EnergyUp()
				m.EnergyDown()
				m.EnergyDown()
				if after := viewOf(m); !reflect.DeepEqual(before, after) {
					t.Fatalf("t=%v mac %d: energy edges in state %d changed it:\nbefore %+v\nafter  %+v",
						r.sched.Now(), i, before.state, before, after)
				}
			}
		}
		for _, m := range r.macs {
			draws = append(draws, m.rng.Intn(1<<30))
		}
		return draws, r.sched.Executed, seen
	}
	plainDraws, plainEvents, _ := run(false)
	draws, events, seen := run(true)
	for _, s := range []jobState{stIdle, stTxRTS, stWaitCTS, stTxData, stWaitAck} {
		if !seen[s] {
			t.Errorf("the rig never had a MAC in state %d; the contract went unchecked there", s)
		}
	}
	if events != plainEvents || !reflect.DeepEqual(draws, plainDraws) {
		t.Fatalf("extra edges outside stContend changed the run: %d events vs %d, next draws %v vs %v",
			events, plainEvents, draws, plainDraws)
	}
}
