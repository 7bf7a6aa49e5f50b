// Package tcp implements a TCP Reno sender and sink at packet granularity,
// following the ns-2 TCP agents the paper's simulations used: sequence
// numbers count segments rather than bytes, the congestion window is a
// (fractional) packet count, and the sink acknowledges every arriving
// segment cumulatively.
//
// The Reno machinery is complete: slow start, congestion avoidance, three
// duplicate ACKs triggering fast retransmit and fast recovery with window
// inflation, and an RFC 6298-style retransmission timer with exponential
// backoff. These dynamics — especially timeout behaviour after route
// breaks — are what differentiate the routing protocols in Figs. 8–10.
package tcp

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Network is the slice of the node a TCP endpoint needs.
type Network interface {
	ID() packet.NodeID
	Scheduler() *sim.Scheduler
	UIDs() *packet.UIDSource
	RegisterFlow(flow int, h func(p *packet.Packet, from packet.NodeID))
	// Originate hands a packet to the routing protocol.
	Originate(p *packet.Packet)
}

// arenaOf resolves the network's packet arena when it carries one
// (node.Node does); plain test networks fall back to nil, i.e. ordinary
// allocation. Kept as a structural assertion so Network stays minimal and
// existing fakes keep compiling; endpoints resolve it once at
// construction (node.SetArena precedes endpoint attachment).
func arenaOf(net Network) *packet.Arena {
	if c, ok := net.(interface{ Arena() *packet.Arena }); ok {
		return c.Arena()
	}
	return nil
}

// Config holds the Reno parameters (ns-2-style defaults).
type Config struct {
	MSS          int     // payload bytes per segment
	MaxWindow    float64 // receiver/advertised window cap, packets
	InitSSThresh float64 // initial slow-start threshold, packets
	MinRTO       sim.Duration
	InitRTO      sim.Duration // RTO before the first RTT sample
	MaxRTO       sim.Duration
}

// DefaultConfig returns the parameter set used in all experiments.
func DefaultConfig() Config {
	return Config{
		MSS:          packet.DefaultPayload,
		MaxWindow:    32,
		InitSSThresh: 32,
		MinRTO:       sim.Second,
		InitRTO:      3 * sim.Second,
		MaxRTO:       64 * sim.Second,
	}
}

// SenderStats counts sender-side events for the metrics layer.
type SenderStats struct {
	Segments       uint64 // data transmissions incl. retransmits ("generated")
	Retransmits    uint64
	FastRecoveries uint64
	Timeouts       uint64
	AcksReceived   uint64
}

// Sender is a Reno source with an infinite backlog supplied by an
// application (see internal/app.FTP).
type Sender struct {
	net  Network
	ar   *packet.Arena // resolved once from net; nil means plain allocation
	cfg  Config
	flow int
	dst  packet.NodeID

	// Reliability state (packet-granularity).
	sndUna int64 // lowest unacknowledged segment
	sndNxt int64 // next segment to send (rewound to sndUna on timeout)
	sndMax int64 // highest segment ever sent + 1

	// Congestion state.
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inRecovery bool
	recover    int64 // highest segment sent when recovery began

	// RTT estimation (RFC 6298).
	srtt, rttvar float64 // seconds; srtt < 0 until the first sample
	rto          sim.Duration
	backoff      int

	// timer is the pending retransmission timeout: a pooled task event
	// (the Sender is its Task), so arming it allocates nothing.
	timer sim.TaskHandle

	// limit is how many segments the application has made available;
	// an FTP source keeps this effectively infinite.
	limit int64

	// firstSent remembers each segment's original transmission time so
	// retransmissions preserve end-to-end delay semantics.
	firstSent map[int64]sim.Time

	running bool

	Stats SenderStats
}

// NewSender creates a Reno sender for flow toward dst. Call Start to begin.
func NewSender(net Network, cfg Config, flow int, dst packet.NodeID) *Sender {
	s := &Sender{
		net:       net,
		ar:        arenaOf(net),
		cfg:       cfg,
		flow:      flow,
		dst:       dst,
		cwnd:      1,
		ssthresh:  cfg.InitSSThresh,
		srtt:      -1,
		rto:       cfg.InitRTO,
		firstSent: make(map[int64]sim.Time),
	}
	net.RegisterFlow(flow, s.receive)
	return s
}

// Supply makes n more segments available for transmission (application
// data). The FTP app calls this once with a huge value.
func (s *Sender) Supply(n int64) {
	s.limit += n
	if s.running {
		s.trySend()
	}
}

// Start begins transmission at the current simulation time.
func (s *Sender) Start() {
	s.running = true
	s.trySend()
}

// Cwnd returns the current congestion window in packets (tests, traces).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// RTO returns the current retransmission timeout (tests).
func (s *Sender) RTO() sim.Duration { return s.rto }

// window is the effective send window in whole packets.
func (s *Sender) window() int64 {
	w := s.cwnd
	if w > s.cfg.MaxWindow {
		w = s.cfg.MaxWindow
	}
	if w < 1 {
		w = 1
	}
	return int64(w)
}

// trySend transmits as many segments as the window allows, starting at
// sndNxt. After a timeout sndNxt is rewound to sndUna (go-back-N, as in
// ns-2's TcpAgent), so this loop also refills loss holes in slow start.
func (s *Sender) trySend() {
	for s.sndNxt < s.sndUna+s.window() && s.sndNxt < s.limit {
		s.emit(s.sndNxt)
		s.sndNxt++
	}
}

// emit transmits segment seq; retransmissions are detected internally.
func (s *Sender) emit(seq int64) {
	retx := seq < s.sndMax
	if !retx {
		s.sndMax = seq + 1
	}
	now := s.net.Scheduler().Now()
	created, ok := s.firstSent[seq]
	if !ok {
		created = now
		s.firstSent[seq] = created
	}
	p := s.ar.NewPacketFrom(packet.Packet{
		UID:       s.net.UIDs().Next(),
		Kind:      packet.KindData,
		Size:      packet.IPHeaderBytes + packet.TCPHeaderBytes + s.cfg.MSS,
		Src:       s.net.ID(),
		Dst:       s.dst,
		TTL:       64,
		CreatedAt: created,
		DataID:    uint64(seq) + 1, // distinct logical payload per segment
	})
	h := s.ar.AttachTCP(p)
	h.Flow, h.Seq, h.SentAt = s.flow, seq, now
	s.Stats.Segments++
	if retx {
		s.Stats.Retransmits++
	}
	s.net.Originate(p)
	if !s.timer.Pending() {
		s.armTimer()
	}
}

func (s *Sender) armTimer() {
	d := s.rto << s.backoff
	if d > s.cfg.MaxRTO {
		d = s.cfg.MaxRTO
	}
	s.timer = s.net.Scheduler().After(d, s, 0)
}

func (s *Sender) cancelTimer() {
	s.net.Scheduler().Cancel(s.timer) // a clear handle is a no-op
	s.timer = sim.TaskHandle{}
}

// receive handles an incoming ACK.
func (s *Sender) receive(p *packet.Packet, _ packet.NodeID) {
	if p.TCP == nil || !p.TCP.Ack {
		return
	}
	s.Stats.AcksReceived++
	ackedThrough := p.TCP.Seq // highest in-order segment received by sink
	newUna := ackedThrough + 1

	if newUna > s.sndUna {
		s.newAck(newUna, p.TCP.SentAt)
	} else {
		s.dupAck()
	}
}

func (s *Sender) newAck(newUna int64, echo sim.Time) {
	acked := newUna - s.sndUna
	for seq := s.sndUna; seq < newUna; seq++ {
		delete(s.firstSent, seq)
	}
	s.sndUna = newUna
	s.backoff = 0

	// RTT sample from the echoed transmission timestamp. Retransmitted
	// segments carry their own (latest) timestamp, so Karn's problem does
	// not arise.
	if echo > 0 {
		s.sampleRTT(s.net.Scheduler().Now().Sub(echo))
	}

	if s.inRecovery {
		if newUna > s.recover {
			// Full recovery: deflate to ssthresh.
			s.inRecovery = false
			s.cwnd = s.ssthresh
			s.dupAcks = 0
		} else {
			// Partial ACK (Reno): retransmit next hole, stay in recovery.
			s.emit(s.sndUna)
			s.cwnd -= float64(acked)
			if s.cwnd < 1 {
				s.cwnd = 1
			}
		}
	} else {
		s.dupAcks = 0
		if s.cwnd < s.ssthresh {
			s.cwnd++ // slow start
		} else {
			s.cwnd += 1 / s.cwnd // congestion avoidance
		}
	}

	s.cancelTimer()
	if s.sndUna < s.sndNxt {
		s.armTimer()
	}
	s.trySend()
}

func (s *Sender) dupAck() {
	if s.inRecovery {
		// Window inflation: each further dup signals another departure.
		s.cwnd++
		s.trySend()
		return
	}
	s.dupAcks++
	if s.dupAcks == 3 && s.sndUna < s.sndNxt {
		// Fast retransmit + fast recovery.
		s.Stats.FastRecoveries++
		s.ssthresh = s.cwnd / 2
		if s.ssthresh < 2 {
			s.ssthresh = 2
		}
		s.recover = s.sndMax - 1
		s.inRecovery = true
		s.cwnd = s.ssthresh + 3
		s.emit(s.sndUna)
		s.cancelTimer()
		s.armTimer()
	}
}

// Run implements sim.Task: the retransmission timer fired.
func (s *Sender) Run(int) {
	s.timer = sim.TaskHandle{}
	if s.sndUna >= s.sndNxt {
		return // everything acked meanwhile
	}
	s.Stats.Timeouts++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.dupAcks = 0
	s.inRecovery = false
	if s.backoff < 6 {
		s.backoff++ // exponential backoff, capped via MaxRTO too
	}
	// Go-back-N: everything past the last cumulative ACK is presumed
	// lost; rewind and resend forward in slow start (ns-2 semantics).
	s.sndNxt = s.sndUna
	s.trySend() // emits sndUna and re-arms the timer (it is clear here)
}

// sampleRTT folds one measurement into srtt/rttvar and recomputes the RTO
// (RFC 6298).
func (s *Sender) sampleRTT(d sim.Duration) {
	r := d.Seconds()
	if r < 0 {
		return
	}
	if s.srtt < 0 {
		s.srtt = r
		s.rttvar = r / 2
	} else {
		const alpha, beta = 0.125, 0.25
		diff := s.srtt - r
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (1-beta)*s.rttvar + beta*diff
		s.srtt = (1-alpha)*s.srtt + alpha*r
	}
	rto := sim.Seconds(s.srtt + 4*s.rttvar)
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	if rto > s.cfg.MaxRTO {
		rto = s.cfg.MaxRTO
	}
	s.rto = rto
}
