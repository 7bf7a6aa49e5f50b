package mtsim

import "testing"

// runAllocCeilings are the regression ceilings for the mean allocations of
// one context-reused run of the BenchmarkRunSetupReuse configuration
// (50 nodes, 10 m/s, 20 s) over the eight benchSeed seeds, one per paper
// protocol so a regression fails under the protocol's name. The mean is
// over several seeds because some regressions only show on some
// topologies: a per-call map in DSR's route loop check stays on the stack
// for short routes and costs ~23 k heap allocations on seed 5 alone.
//
// History of the MTS figure (seed 1 only, until the guard went
// multi-seed): the packet arena landed it at ~16.7 k allocs/run (from
// ~107 k before it); the control-plane arena (router recycling, pooled
// route buffers, cached RNG labels) brought it to ~14.6 k. The
// profile-driven pass then removed the largest remaining sources: the MAC
// interface queue no longer leaks capacity on dequeue (every later enqueue
// used to reallocate), the TCP retransmit timer is a pooled task event
// instead of a closure event per arm, and the DSR/MTS route loop checks
// scan the route instead of building a map. Seed 1 went from 14.6 k to
// 3.9 k (MTS), 12.9 k to 1.7 k (DSR) and 11.0 k to 1.35 k (AODV); the
// eight-seed means are now ~3.7 k, ~1.8 k and ~1.35 k.
//
// Each ceiling carries ~25 % headroom over its recorded mean, so routine
// noise passes while losing an arena, re-introducing a per-packet or
// per-timer allocation, or a map in a per-route check fails loudly. If you
// raise one, update the PERFORMANCE.md allocation tables in the same
// commit.
var runAllocCeilings = []struct {
	protocol string
	ceiling  float64
}{
	{"MTS", 4_600},
	{"DSR", 2_300},
	{"AODV", 1_700},
}

// TestRunAllocationCeiling is the allocation-regression guard behind the
// bench smoke: it measures the steady-state allocations of cached-context
// runs directly (no -bench invocation needed), so plain `go test ./...` —
// and therefore CI — fails when the data plane regresses.
func TestRunAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs full simulations")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const seeds = 8
	for _, tc := range runAllocCeilings {
		t.Run(tc.protocol, func(t *testing.T) {
			cfg := benchBase()
			cfg.Protocol = tc.protocol
			cfg.MaxSpeed = 10
			ctx := NewRunContext()
			// AllocsPerRun's uncounted first call warms the context: it
			// grows the scaffolding and the arena's free lists, and the
			// guard is about the steady state. The counted calls then
			// cover the seed set once each.
			i := 0
			allocs := testing.AllocsPerRun(seeds, func() {
				cfg.Seed = benchSeed(i)
				i++
				if _, err := ctx.RunOne(cfg); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("context-reused %s run: %.0f allocs (mean of %d seeds, ceiling %.0f)",
				tc.protocol, allocs, seeds, tc.ceiling)
			if allocs > tc.ceiling {
				t.Errorf("allocation regression: %s %.0f allocs/run exceeds the %.0f ceiling; "+
					"profile the data plane (packet arena release points) before raising it",
					tc.protocol, allocs, tc.ceiling)
			}
		})
	}
}
