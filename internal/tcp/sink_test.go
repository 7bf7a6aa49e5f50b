package tcp

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// sinkRig wires a sink on end 2 of a zero-delay pipe with a data-packet
// factory, for white-box delivery-edge-case tests.
func sinkRig(t *testing.T) (*pipe, *Sink, func(seq int64) *packet.Packet) {
	t.Helper()
	p := newPipe(0)
	p.ends[1].RegisterFlow(1, func(*packet.Packet, packet.NodeID) {})
	sink := NewSink(p.ends[2], 1)
	mk := func(seq int64) *packet.Packet {
		return &packet.Packet{
			UID: p.uids.Next(), Kind: packet.KindData, Src: 1, Dst: 2,
			CreatedAt: p.sched.Now(),
			TCP:       &packet.TCPHeader{Flow: 1, Seq: seq},
		}
	}
	return p, sink, mk
}

// TestSinkDuplicateOfBufferedSegment: a retransmission of a segment that
// is buffered out of order (received, but below-sequence holes remain)
// must count as a duplicate, not inflate Distinct.
func TestSinkDuplicateOfBufferedSegment(t *testing.T) {
	_, sink, mk := sinkRig(t)
	sink.receive(mk(0), 1)
	sink.receive(mk(2), 1) // buffered: hole at 1
	sink.receive(mk(2), 1) // duplicate of the buffered copy
	if sink.Stats.Distinct != 2 {
		t.Fatalf("distinct = %d, want 2", sink.Stats.Distinct)
	}
	if sink.Stats.DupArrivals != 1 {
		t.Fatalf("dupArrivals = %d, want 1", sink.Stats.DupArrivals)
	}
	if sink.NextExpected() != 1 {
		t.Fatalf("nextExpected = %d, want 1", sink.NextExpected())
	}
	if sink.Stats.HighestInOrder != 0 {
		t.Fatalf("highestInOrder = %d, want 0", sink.Stats.HighestInOrder)
	}
}

// TestSinkDuplicateBelowWindow: retransmissions of already-consumed
// in-order segments are duplicates too.
func TestSinkDuplicateBelowWindow(t *testing.T) {
	_, sink, mk := sinkRig(t)
	sink.receive(mk(0), 1)
	sink.receive(mk(1), 1)
	sink.receive(mk(0), 1) // stale retransmission
	if sink.Stats.Distinct != 2 || sink.Stats.DupArrivals != 1 {
		t.Fatalf("distinct=%d dup=%d, want 2/1", sink.Stats.Distinct, sink.Stats.DupArrivals)
	}
	if sink.NextExpected() != 2 {
		t.Fatalf("nextExpected = %d, want 2", sink.NextExpected())
	}
}

// TestSinkOverlappingHoleFill: filling the hole drains every contiguous
// buffered segment in one step and the out-of-order buffer empties.
func TestSinkOverlappingHoleFill(t *testing.T) {
	_, sink, mk := sinkRig(t)
	sink.receive(mk(0), 1)
	sink.receive(mk(2), 1)
	sink.receive(mk(3), 1)
	sink.receive(mk(4), 1)
	if sink.NextExpected() != 1 {
		t.Fatalf("nextExpected = %d before hole fill", sink.NextExpected())
	}
	sink.receive(mk(1), 1) // fills the hole: 2,3,4 drain with it
	if sink.NextExpected() != 5 {
		t.Fatalf("nextExpected = %d, want 5", sink.NextExpected())
	}
	if len(sink.outOfOrder) != 0 {
		t.Fatalf("out-of-order buffer holds %d segments after drain", len(sink.outOfOrder))
	}
	if sink.Stats.Distinct != 5 {
		t.Fatalf("distinct = %d, want 5", sink.Stats.Distinct)
	}
	if sink.Stats.HighestInOrder != 4 {
		t.Fatalf("highestInOrder = %d, want 4", sink.Stats.HighestInOrder)
	}
}

// TestSinkOnDeliverFiresOncePerSegment: the delivery observer sees each
// logical segment exactly once, duplicates and reordering notwithstanding.
func TestSinkOnDeliverFiresOncePerSegment(t *testing.T) {
	_, sink, mk := sinkRig(t)
	var seen []int64
	sink.OnDeliver = func(p *packet.Packet) { seen = append(seen, p.TCP.Seq) }
	sink.receive(mk(1), 1)
	sink.receive(mk(1), 1)
	sink.receive(mk(0), 1)
	sink.receive(mk(0), 1)
	want := []int64{1, 0}
	if len(seen) != len(want) {
		t.Fatalf("OnDeliver fired for %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("OnDeliver order %v, want %v", seen, want)
		}
	}
}

// TestSinkDelayCountedOnFirstArrivalOnly: TotalDelay sums the first copy's
// delay; duplicates arriving later must not inflate it.
func TestSinkDelayCountedOnFirstArrivalOnly(t *testing.T) {
	p, sink, mk := sinkRig(t)
	first := mk(0)
	dup := mk(0)
	p.sched.After(10*sim.Millisecond, do(func() { sink.receive(first, 1) }), 0)
	p.sched.After(500*sim.Millisecond, do(func() { sink.receive(dup, 1) }), 0)
	p.sched.Run()
	if sink.Stats.TotalDelay != 10*sim.Millisecond {
		t.Fatalf("totalDelay = %v, want 10ms", sink.Stats.TotalDelay)
	}
	if sink.Stats.LastArrival != sim.Time(500*sim.Millisecond) {
		t.Fatalf("lastArrival = %v", sink.Stats.LastArrival)
	}
}

// TestSinkIgnoresAcksAndNonTCP: pure ACKs and packets without transport
// headers leave every counter untouched.
func TestSinkIgnoresAcksAndNonTCP(t *testing.T) {
	p, sink, _ := sinkRig(t)
	sink.receive(&packet.Packet{
		UID: p.uids.Next(), Kind: packet.KindAck, Src: 1, Dst: 2,
		TCP: &packet.TCPHeader{Flow: 1, Seq: 3, Ack: true},
	}, 1)
	sink.receive(&packet.Packet{
		UID: p.uids.Next(), Kind: packet.KindData, Src: 1, Dst: 2,
	}, 1)
	if sink.Stats.Arrivals != 0 || sink.Stats.AcksSent != 0 {
		t.Fatalf("sink counted non-data traffic: %+v", sink.Stats)
	}
}

// TestSinkMuteSuppressesAcks: a muted sink (CBR mode) counts arrivals but
// never originates acknowledgements.
func TestSinkMuteSuppressesAcks(t *testing.T) {
	p, sink, mk := sinkRig(t)
	var acks int
	p.ends[1].RegisterFlow(1, func(pk *packet.Packet, _ packet.NodeID) { acks++ })
	sink.Mute = true
	sink.receive(mk(0), 1)
	sink.receive(mk(1), 1)
	p.sched.Run()
	if acks != 0 {
		t.Fatalf("muted sink sent %d acks", acks)
	}
	if sink.Stats.AcksSent != 0 {
		t.Fatalf("AcksSent = %d on a muted sink", sink.Stats.AcksSent)
	}
	if sink.Stats.Distinct != 2 || sink.Stats.Arrivals != 2 {
		t.Fatalf("muted sink miscounted: %+v", sink.Stats)
	}
}

// TestSinkAckEchoesRTTSample: acknowledgements echo the segment's SentAt
// so the sender can take RTT samples off the ack path.
func TestSinkAckEchoesRTTSample(t *testing.T) {
	p, _, _ := sinkRig(t)
	var got []sim.Time
	p.ends[1].RegisterFlow(2, func(pk *packet.Packet, _ packet.NodeID) {
		got = append(got, pk.TCP.SentAt)
	})
	sink := NewSink(p.ends[2], 2)
	stamp := sim.Time(1234 * sim.Microsecond)
	sink.receive(&packet.Packet{
		UID: p.uids.Next(), Kind: packet.KindData, Src: 1, Dst: 2,
		TCP: &packet.TCPHeader{Flow: 2, Seq: 0, SentAt: stamp},
	}, 1)
	p.sched.Run()
	if len(got) != 1 || got[0] != stamp {
		t.Fatalf("echoed SentAt = %v, want [%v]", got, stamp)
	}
}
