package main

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/experiment"
	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

// workload is one fixed input set. Every workload drives the same
// pipeline (direct runs, cold and warm sweep, cold, replayed and warm
// fabric queries) over its own grid, so every workload reports every
// metric; the grids differ in which layers they load.
type workload struct {
	name string
	// base is the scenario every cell of the grid starts from.
	base func() scenario.Config
	// The sweep grid: protocols × speeds × adversaries × countermeasures
	// × reps seeds, the seeds running from the --seed base upwards. A
	// run's cost varies by about 30 % from seed to seed (the random
	// flow's length, the topology), so a figure needs a few dozen runs
	// before it holds still from one seed base to the next; the 20 flows
	// of scale-1000 average most of that out within a run. The sizes are
	// as large as lets one benchmark run stay within about 35 s on a
	// loaded two-vCPU host.
	protocols []string
	speeds    []float64
	advs      []adversary.Spec
	cms       []countermeasure.Spec
	reps      int
	// The fabric query grid. A /v1/figure query cannot name adversary
	// or countermeasure axes, so it spans protocols × speeds × reps on
	// the same base.
	qProtocols []string
	qSpeeds    []float64
	qReps      int
}

// scale1000Flows is the 20 CBR flows of the 1000-node workload, i→500+i.
func scale1000Flows() []scenario.FlowSpec {
	flows := make([]scenario.FlowSpec, 20)
	for i := range flows {
		flows[i] = scenario.FlowSpec{Src: packet.NodeID(i), Dst: packet.NodeID(500 + i)}
	}
	return flows
}

var workloads = []workload{
	// The paper's §IV-A scenario, the run every figure sweep repeats: the
	// per-event path (sim heap, phy arrival batch and hit sort, geo grid,
	// mac DCF, tcp) does almost all the work.
	{
		name: "paper-50",
		base: func() scenario.Config {
			cfg := scenario.DefaultConfig()
			cfg.Duration = 10 * sim.Second
			cfg.TCPStart = sim.Time(2 * sim.Second)
			return cfg
		},
		protocols:  scenario.Protocols(),
		speeds:     []float64{10},
		reps:       16,
		qProtocols: scenario.Protocols(),
		qSpeeds:    []float64{10},
		qReps:      8,
	},
	// 1000 nodes at paper density: building them makes set-up visible,
	// and network-wide floods load routing. Open-loop CBR
	// fills and drops MAC queues and bypasses tcp entirely, so a TCP
	// change predicts no change here.
	{
		name: "scale-1000",
		base: func() scenario.Config {
			cfg := scenario.DefaultConfig()
			cfg.Nodes = 1000
			cfg.Field = geo.Field(4472, 4472)
			cfg.Duration = 3 * sim.Second
			cfg.TCPStart = sim.Time(1 * sim.Second)
			cfg.Traffic = "cbr"
			cfg.Flows = scale1000Flows()
			return cfg
		},
		protocols:  []string{"MTS", "AODV"},
		speeds:     []float64{10},
		reps:       3,
		qProtocols: []string{"MTS", "AODV"},
		qSpeeds:    []float64{10},
		qReps:      2,
	},
	// The attacker × defender grid: adversary and countermeasure code on
	// the event path, and many small cells, so the warm path (runcache,
	// experiment, sweepfabric) weighs most here.
	{
		name: "sweep",
		base: func() scenario.Config {
			cfg := scenario.DefaultConfig()
			cfg.Duration = 6 * sim.Second
			cfg.TCPStart = sim.Time(2 * sim.Second)
			return cfg
		},
		protocols: []string{"MTS"},
		speeds:    []float64{10},
		advs: []adversary.Spec{
			{Model: adversary.ModelCoalition, K: 2},
			{Model: adversary.ModelWormhole},
			{Model: adversary.ModelBlackhole, K: 2},
		},
		cms: []countermeasure.Spec{
			{Model: countermeasure.ModelNone},
			{Model: countermeasure.ModelShuffle},
			{Model: countermeasure.ModelTrust},
		},
		reps:       12,
		qProtocols: scenario.Protocols(),
		qSpeeds:    []float64{5, 10},
		qReps:      8,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to a seconds-long version of itself for the
// self-test: one seed, shorter horizons, the same pipeline.
func (w workload) smoke() workload {
	base := w.base
	w.base = func() scenario.Config {
		cfg := base()
		cfg.Duration = cfg.Duration / 4
		cfg.TCPStart = sim.Time(cfg.Duration / 4)
		return cfg
	}
	w.reps, w.qReps = 1, 1
	return w
}

// sweep returns the workload's sweep grid at the given seed base.
func (w workload) sweep(seed int64) experiment.Sweep {
	return experiment.Sweep{
		Base:            w.base(),
		Protocols:       w.protocols,
		Speeds:          w.speeds,
		Adversaries:     w.advs,
		Countermeasures: w.cms,
		Reps:            w.reps,
		SeedBase:        seed,
	}
}

// directJobs is the direct phase's run set: the grid's configurations,
// each over a block of Reps seeds of its own, configuration c seeded from
// SeedBase + c·Reps. In the grid every configuration shares the same Reps
// topologies, and a run's cost follows its topology (the flow's length,
// the neighbourhoods) closely, so a per-run figure over the grid would
// rest on Reps independent draws; over disjoint blocks it rests on every
// run. Configuration 0 keeps the grid's seeds, so its runs are checked
// against the cold sweep's.
func directJobs(sw experiment.Sweep) []experiment.CellJob {
	jobs := sw.Jobs()
	for i := range jobs {
		jobs[i].Config.Seed += int64(i/sw.Reps) * int64(sw.Reps)
	}
	return jobs
}

// querySweep is the local sweep a fabric query over the query grid
// aggregates; its renders are what the query bodies must equal.
func (w workload) querySweep(seed int64) experiment.Sweep {
	return experiment.Sweep{
		Base:      w.base(),
		Protocols: w.qProtocols,
		Speeds:    w.qSpeeds,
		Reps:      w.qReps,
		SeedBase:  seed,
	}
}

// query returns the /v1/figure parameters naming the query grid; the
// coordinator's Base supplies everything else.
func (w workload) query(seed int64, fig string) url.Values {
	speeds := make([]string, len(w.qSpeeds))
	for i, s := range w.qSpeeds {
		speeds[i] = strconv.FormatFloat(s, 'g', -1, 64)
	}
	return url.Values{
		"fig":       {fig},
		"protocols": {strings.Join(w.qProtocols, ",")},
		"speeds":    {strings.Join(speeds, ",")},
		"reps":      {strconv.Itoa(w.qReps)},
		"seedbase":  {fmt.Sprint(seed)},
	}
}
