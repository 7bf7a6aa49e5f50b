// Package metrics implements the paper's performance metrics (§IV-B):
//
//   - interception ratio Ri = Pe / Pr (Eq. 1), measured for a designated
//     eavesdropping node that promiscuously collects TCP data within radio
//     range;
//   - participating nodes: intermediate nodes that relayed at least one
//     data packet during the session (Fig. 5);
//   - the normalized standard deviation of per-node relay counts
//     (Eqs. 2–4, Table I, Fig. 6): β_i per participating node, α = Σβ_i,
//     γ_i = β_i/α, σ = sqrt(Σ(γ_i − mean γ)² / N);
//   - highest interception ratio: the worst case where the most-used relay
//     is the eavesdropper, max β_i / Pr (Fig. 7);
//   - average end-to-end delay of delivered data (Fig. 8), throughput
//     (Fig. 9), delivery rate (Fig. 10) and control overhead counted as
//     per-hop routing-packet transmissions (Fig. 11).
//
// Counting conventions (documented substitutions — the paper does not pin
// these down): β counts relay events (retransmissions included, as relays
// physically happen). For the random eavesdropper's Ri, Pe counts distinct
// logical data packets (retransmissions carry no new information) and Pr
// counts distinct data packets received by the destination. For the
// worst-case ratio (Fig. 7) the paper sets Pe to the largest β, a count of
// relay events, so Pr there counts arrival events too — both sides of the
// division use the same event semantics.
package metrics

import (
	"sort"

	"mtsim/internal/packet"
	"mtsim/internal/sim"
	"mtsim/internal/stats"
)

// Collector accumulates per-run counters. It is wired into node hooks by
// the scenario builder; one collector serves one simulation run.
type Collector struct {
	relays    map[packet.NodeID]uint64 // β per node
	controlTx uint64
	dataTx    uint64
	drops     map[string]uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		relays: make(map[packet.NodeID]uint64),
		drops:  make(map[string]uint64),
	}
}

// Reset empties the collector for reuse by the next simulation run,
// keeping the map storage. Equivalent to NewCollector for every observer.
func (c *Collector) Reset() {
	clear(c.relays)
	clear(c.drops)
	c.controlTx = 0
	c.dataTx = 0
}

// Relay records that node relayed one data packet (β_i increment).
func (c *Collector) Relay(node packet.NodeID) { c.relays[node]++ }

// ControlSend records one per-hop transmission of a routing packet.
func (c *Collector) ControlSend() { c.controlTx++ }

// DataSend records one per-hop transmission of a transport packet.
func (c *Collector) DataSend() { c.dataTx++ }

// Drop records a routing-layer packet drop with its reason.
func (c *Collector) Drop(reason string) { c.drops[reason]++ }

// RelayRow is one participating node's entry in Table I.
type RelayRow struct {
	Node  packet.NodeID
	Beta  uint64  // received (relayed) packets
	Gamma float64 // normalized share, Eq. 3
}

// RelayTable computes Table I: per-node β and γ, their sum α, and the
// normalized standard deviation σ (Eq. 4). Rows are sorted by node ID.
//
// Note on Eq. 4: the paper prints a population form (divide by N), but the
// σ = 19.60% in its own Table I is only reproducible with the SAMPLE
// standard deviation (divide by N−1) over the table's β column. We follow
// the computed artefact — the sample form — so our Table I output matches
// the paper's numbers exactly (see metrics_test.go).
func (c *Collector) RelayTable() (rows []RelayRow, alpha uint64, sigma float64) {
	for n, b := range c.relays {
		rows = append(rows, RelayRow{Node: n, Beta: b})
		alpha += b
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
	if alpha == 0 {
		return rows, 0, 0
	}
	gammas := make([]float64, len(rows))
	for i := range rows {
		rows[i].Gamma = float64(rows[i].Beta) / float64(alpha)
		gammas[i] = rows[i].Gamma
	}
	return rows, alpha, stats.StdDevSample(gammas)
}

// Participating returns the number of nodes that relayed ≥1 data packet.
func (c *Collector) Participating() int { return len(c.relays) }

// MaxBeta returns the highest per-node relay count.
func (c *Collector) MaxBeta() uint64 {
	var m uint64
	for _, b := range c.relays {
		if b > m {
			m = b
		}
	}
	return m
}

// ControlTx returns the total per-hop routing-packet transmissions.
func (c *Collector) ControlTx() uint64 { return c.controlTx }

// DataTx returns the total per-hop transport-packet transmissions.
func (c *Collector) DataTx() uint64 { return c.dataTx }

// Drops returns the per-reason routing drop counters.
func (c *Collector) Drops() map[string]uint64 { return c.drops }

// AdversaryMember is one adversarial vantage point's interception
// accounting within a RunMetrics: the data frames it overheard and the
// distinct logical payloads among them.
type AdversaryMember struct {
	Node     packet.NodeID
	Frames   uint64
	Distinct uint64
}

// RunMetrics is the complete result of one simulation run.
type RunMetrics struct {
	Protocol string
	MaxSpeed float64 // m/s
	Seed     int64
	Duration sim.Duration

	// Security metrics (Figs. 5–7, Table I).
	Participating       int
	RelayStdDev         float64
	HighestInterception float64
	InterceptionRatio   float64
	EavesdropperID      packet.NodeID
	RelayRows           []RelayRow
	Alpha               uint64

	// Adversary metrics (extensions beyond the paper's single random
	// eavesdropper; see internal/adversary). For the legacy model these
	// mirror the single-tap numbers: AdversaryK == 1 and
	// CoalitionDistinct/InterceptionRatio equal the lone eavesdropper's.
	AdversaryModel    string
	AdversaryK        int
	CoalitionDistinct uint64 // union Pe over all vantage points
	CoalitionFrames   uint64 // total overheard data frames, dups included
	AdversaryDropped  uint64 // data packets discarded by dropping relays
	// AdversaryAttracted counts data frames addressed TO a compromised
	// vantage point (first transmission attempts, no retries) — the traffic
	// a wormhole or rushing attacker pulled onto itself by winning route
	// discovery, whether or not it then dropped it.
	AdversaryAttracted uint64
	AdversaryMembers   []AdversaryMember

	// Countermeasure metrics (internal/countermeasure): how much of the
	// adversary's union Pe forms contiguous stretches of the flow's byte
	// stream, and the defender's own accounting. Contiguity is measured
	// over consecutive DataIDs (consecutive TCP segments), in two views:
	// the set view ("Run"/"Contig" fields — what the attacker could
	// reassemble offline from everything intercepted, an upper bound) and
	// the stream view ("Stream" fields — what it heard already in
	// consecutive ascending order, the byte stream a tapped relay reads
	// off the air). Data shuffling scrambles the interception order, so
	// it collapses the stream view directly and dents the set view only
	// where dispersal keeps segments out of radio range entirely.
	CountermeasureModel    string
	InterceptedLongestRun  uint64  // set view: longest consecutive-DataID run in union Pe
	InterceptedContigPkts  uint64  // set view: intercepted packets inside runs of length ≥ 2
	InterceptedContigBytes uint64  // InterceptedContigPkts × payload bytes
	InterceptedContigRatio float64 // InterceptedContigPkts / Pe (0 when Pe = 0)
	InterceptedStreamRun   uint64  // stream view: longest in-order consecutive streak
	InterceptedStreamPkts  uint64  // stream view: packets in in-order streaks ≥ 2
	InterceptedStreamBytes uint64  // InterceptedStreamPkts × payload bytes
	InterceptedStreamRatio float64 // InterceptedStreamPkts / Pe (0 when Pe = 0)
	ShuffledSegments       uint64  // segments released in permuted order
	ShuffleBlocks          uint64  // shuffle blocks flushed

	// TCP metrics (Figs. 8–11).
	AvgDelaySec    float64
	ThroughputPps  float64 // distinct data packets delivered per second
	ThroughputKbps float64
	DeliveryRate   float64
	ControlPkts    uint64

	// Diagnostics.
	SegmentsSent uint64
	Retransmits  uint64
	Distinct     uint64
	Arrivals     uint64
	Timeouts     uint64
	EventsRun    uint64
	Extra        map[string]uint64
}
