package main

// The traced run's instrumentation. Everything here wraps public seams
// from the benchmark's side — routing.Protocol, experiment.Cache,
// experiment.Runner, sweepfabric.Coordinator — and samples between
// sliced Scheduler.RunUntil calls; no program code changes. A traced run
// must produce the same RunMetrics bytes as an untraced one, and the
// benchmark checks that it does.

import (
	"bytes"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"mtsim/internal/experiment"
	mtsmetrics "mtsim/internal/metrics"
	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
	"mtsim/internal/sweepfabric"
)

// sampleSlice is the simulated time between two samples of the queue
// depths.
const sampleSlice = 100 * sim.Millisecond

// layerStats sums the per-layer counts of the instrumented runs.
type layerStats struct {
	runs       int
	events     uint64
	nsPerEvent float64
	heapMax    int
	queueMax   int
	macFrames  uint64
	macRetries uint64
	macDrops   uint64
	calls      uint64
	receives   uint64
	receiveNs  int64
	control    uint64
	tcpSegs    uint64
	tcpRetx    uint64
	tcpTOs     uint64
	cbrSent    uint64
	acquired   uint64
}

// timedProto counts a router's calls and times its Receive.
type timedProto struct {
	routing.Protocol
	l *layerStats
}

func (p *timedProto) Send(pk *packet.Packet) {
	p.l.calls++
	p.Protocol.Send(pk)
}

func (p *timedProto) Receive(pk *packet.Packet, from packet.NodeID) {
	t0 := time.Now()
	p.Protocol.Receive(pk, from)
	p.l.receiveNs += time.Since(t0).Nanoseconds()
	p.l.calls++
	p.l.receives++
}

func (p *timedProto) LinkFailed(pk *packet.Packet, next packet.NodeID) {
	p.l.calls++
	p.Protocol.LinkFailed(pk, next)
}

// run drives a built scenario to its horizon with every router wrapped,
// sampling the scheduler heap and the MAC queues between slices. The
// routers are unwrapped before Gather, which type-switches on them, and
// before the caller's Retire.
func (l *layerStats) run(s *scenario.Scenario) *mtsmetrics.RunMetrics {
	for _, nd := range s.Nodes {
		nd.Proto = &timedProto{Protocol: nd.Proto, l: l}
	}
	horizon := sim.Time(s.Cfg.Duration)
	for t := sim.Time(0); t < horizon; {
		t = t.Add(sampleSlice)
		if t > horizon {
			t = horizon
		}
		s.Sched.RunUntil(t)
		l.heapMax = max(l.heapMax, s.Sched.Len())
		for _, nd := range s.Nodes {
			l.queueMax = max(l.queueMax, nd.Mac.QueueLen())
		}
	}
	for _, nd := range s.Nodes {
		nd.Proto = nd.Proto.(*timedProto).Protocol
	}
	m := s.Gather()

	l.runs++
	l.events += m.EventsRun
	l.control += m.ControlPkts
	for _, nd := range s.Nodes {
		st := nd.Mac.Stats
		for _, n := range st.FramesSent {
			l.macFrames += n
		}
		l.macRetries += st.Retries
		l.macDrops += st.QueueDrops
	}
	for _, snd := range s.Senders {
		l.tcpSegs += snd.Stats.Segments
		l.tcpRetx += snd.Stats.Retransmits
		l.tcpTOs += snd.Stats.Timeouts
	}
	for _, c := range s.CBRs {
		l.cbrSent += c.Sent
	}
	as := s.Arena.Stats()
	l.acquired += as.PacketsAcquired + as.FramesAcquired
	return m
}

// perRun divides a count summed over the instrumented runs by their
// number.
func (l *layerStats) perRun(n uint64) float64 {
	if l.runs == 0 {
		return 0
	}
	return float64(n) / float64(l.runs)
}

// timedCache times the sweep's run-cache lookups and writes.
type timedCache struct {
	inner        experiment.Cache
	gets, puts   atomic.Int64
	getNs, putNs atomic.Int64
}

func (c *timedCache) Get(cfg scenario.Config) (*mtsmetrics.RunMetrics, bool) {
	t0 := time.Now()
	m, ok := c.inner.Get(cfg)
	c.getNs.Add(time.Since(t0).Nanoseconds())
	c.gets.Add(1)
	return m, ok
}

func (c *timedCache) Put(cfg scenario.Config, m *mtsmetrics.RunMetrics) error {
	t0 := time.Now()
	err := c.inner.Put(cfg, m)
	c.putNs.Add(time.Since(t0).Nanoseconds())
	c.puts.Add(1)
	return err
}

// timedRunner times the cells a sweep simulates.
type timedRunner struct {
	runs atomic.Int64
	ns   atomic.Int64
}

func (r *timedRunner) run(ctx *scenario.Context, cfg scenario.Config, w experiment.Watchdog) (*mtsmetrics.RunMetrics, error) {
	t0 := time.Now()
	m, err := experiment.DefaultRunner(ctx, cfg, w)
	r.ns.Add(time.Since(t0).Nanoseconds())
	r.runs.Add(1)
	return m, err
}

// timedCoordinator times a worker's lease and completion round trips.
type timedCoordinator struct {
	inner                    sweepfabric.Coordinator
	leases, completes, empty atomic.Int64
	leaseNs, completeNs      atomic.Int64
}

func (c *timedCoordinator) Lease(worker string, max int) (sweepfabric.LeaseGrant, error) {
	t0 := time.Now()
	g, err := c.inner.Lease(worker, max)
	c.leaseNs.Add(time.Since(t0).Nanoseconds())
	c.leases.Add(1)
	if err == nil && len(g.Cells) == 0 {
		c.empty.Add(1)
	}
	return g, err
}

func (c *timedCoordinator) Complete(worker string, leaseID int64, cell experiment.CellJob, m *mtsmetrics.RunMetrics, cached bool) error {
	t0 := time.Now()
	err := c.inner.Complete(worker, leaseID, cell, m, cached)
	c.completeNs.Add(time.Since(t0).Nanoseconds())
	c.completes.Add(1)
	return err
}

func (c *timedCoordinator) Fail(worker string, leaseID int64, cell experiment.CellJob, errMsg string) error {
	return c.inner.Fail(worker, leaseID, cell, errMsg)
}

// meanUs is a timed total in nanoseconds over n calls, in microseconds.
func meanUs(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// profiler collects one CPU profile in memory.
type profiler struct {
	buf bytes.Buffer
	on  bool
}

func startProfile() *profiler {
	p := &profiler{}
	p.on = pprof.StartCPUProfile(&p.buf) == nil
	return p
}

func (p *profiler) stop() []byte {
	if !p.on {
		return nil
	}
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}
