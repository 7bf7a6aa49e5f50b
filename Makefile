GO ?= go

.PHONY: build test test-race test-chaos vet fmt-check bench bench-smoke sweep-demo sweepd-demo coevolution-demo clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails listing the files gofmt would rewrite.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

test:
	$(GO) test ./...

# Race-detector lane (the experiment sweep fans simulations out over a
# worker pool; this keeps the aggregation path provably race-clean).
test-race:
	$(GO) test -race ./...

# Fault-injection lane: the seeded chaos suite (internal/faultinject),
# plain and under the race detector — sweeps under injected panics,
# watchdog kills, and torn cache writes must aggregate bit-identically
# to fault-free sweeps (docs/ARCHITECTURE.md "Failure semantics").
test-chaos:
	$(GO) test -v ./internal/faultinject/
	$(GO) test -race ./internal/faultinject/

# Full benchmark suite; see PERFORMANCE.md for methodology.
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 5x .
	$(GO) test -run xxx -bench . -benchmem ./internal/...

# One-iteration smoke of every benchmark (CI).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/...

# Demonstrate the content-addressed run cache (internal/runcache): the
# first invocation simulates and fills the cache, the second serves every
# cell from disk — asserted: the demo FAILS unless the second run reports
# all 8 hits and 0 misses (guards the CLI cache wiring, not just the
# engine, which TestSweepWarmCacheRunsNothing already covers).
SWEEP_DEMO_FLAGS = -duration 8 -reps 2 -speeds 2,10 -protocols AODV,MTS -only fig9 -cache-dir .sweep-demo-cache
sweep-demo:
	rm -rf .sweep-demo-cache
	$(GO) run ./cmd/experiments $(SWEEP_DEMO_FLAGS)
	$(GO) run ./cmd/experiments $(SWEEP_DEMO_FLAGS) -resume 2>.sweep-demo-cache/stderr.log; \
	  status=$$?; cat .sweep-demo-cache/stderr.log >&2; \
	  [ $$status -eq 0 ] && grep -q '8 hits, 0 misses' .sweep-demo-cache/stderr.log
	rm -rf .sweep-demo-cache

# Attacker–defender co-evolution demo (internal/experiment): plays the
# iterated best-response game from examples/coevolution and re-diffs the
# payoff table and move history against the committed output — the
# equilibrium is evidence, so it must stay reproducible byte for byte,
# not just compile. Regenerate the committed output after an intentional
# behaviour change with:
#	go run ./examples/coevolution > examples/coevolution/OUTPUT.txt
coevolution-demo:
	$(GO) run ./examples/coevolution > .coevolution-demo.out
	diff -u examples/coevolution/OUTPUT.txt .coevolution-demo.out
	rm -f .coevolution-demo.out

# Distributed sweep fabric demo (cmd/sweepd, internal/sweepfabric):
# boots a coordinator, shards a mini-sweep across two separate worker
# processes, and asserts the warm re-query is served from the
# rendered-query memo with zero cells simulated (the script fails
# otherwise — it is the CI fabric job's local equivalent).
sweepd-demo:
	bash scripts/sweepd_demo.sh

clean:
	$(GO) clean ./...
	rm -rf .sweep-demo-cache
