package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"mtsim/internal/experiment"
	mtsmetrics "mtsim/internal/metrics"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
	"mtsim/internal/sweepfabric"
)

const (
	// minPasses is the fewest times the direct phase runs every cell;
	// each cell's time is its fastest run, which filters out the bursts
	// of host contention a shared machine has. An untraced run makes one
	// pass per passWall of --seconds: a pass with its warm-path samples
	// takes 4-6 s on a quiet two-vCPU host, and the cold phases 4-6 s,
	// so --seconds 30 makes four passes in about 25-30 s.
	minPasses = 3
	passWall  = 7500 * time.Millisecond
	// warmFrac is the share of the direct phase's wall time spent on
	// warm-path samples (warm sweeps, replayed and memo-hit queries).
	// They are interleaved between the direct runs, so their figures see
	// the whole run rather than one slice of the host's load.
	warmFrac = 0.2
	// Minimum warm-path samples, topped up after the direct phase.
	minWarmSweeps   = 10
	minReplayRounds = 2
	minWarmQueries  = 100
	// warmQueryBurst is the memo-hit queries one warm-path sample sends
	// back to back: a closed loop whose first answers, just after a
	// simulation, are slower than its steady state.
	warmQueryBurst = 100

	// sweepParallelism is the simulating goroutines of the cold sweep
	// and of the fabric worker: the host has two vCPUs.
	sweepParallelism = 2
	// workerPoll caps the fabric worker's idle sleep between empty
	// leases, so the cold query measures work rather than polling.
	workerPoll = 2 * time.Millisecond
	// coldFig is the figure the cold and memo-hit queries ask for.
	coldFig = "fig10"
)

// bench is one benchmark process: a workload at a seed base, the check
// tally, and what the phases measured.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	traced bool
	dir    string // working directory for the run caches
	log    io.Writer

	attempted, failed int

	// ref holds each run's RunMetrics JSON by cell and seed; every later
	// run of the same cell — direct, traced, or in a sweep — must
	// reproduce it exactly.
	ref map[string][]byte

	builds    []float64 // Context.Build seconds, warmed context
	readies   []float64 // coordinator set-up seconds
	runS      float64   // each cell's fastest run, summarised by typical
	allocs    float64   // heap allocations per run, last plain pass
	allocB    float64   // heap bytes per run, last plain pass
	plainRunS float64   // per-run seconds of the profiled plain pass
	traceRunS float64   // per-run seconds of the instrumented pass

	sweepCold float64   // seconds
	sweepWarm []float64 // seconds per warm sweep
	queryCold float64   // seconds
	queryRepl []float64 // seconds per replayed query
	queryWarm []float64 // seconds per memo-hit query
	coldCells int       // X-Sweepd-Simulated of the cold query

	renderNs   []float64 // nanoseconds per Table or CSV render
	keyNs      float64   // mean nanoseconds per runcache.Key
	layers     layerStats
	cache      *timedCache
	simulate   *timedRunner
	coord      *timedCoordinator
	cpuProfile []byte
	gcPct      float64

	// The warm path, ready once the cold sweep and the cold query filled
	// their stores.
	warmReady bool
	sw        experiment.Sweep // the grid, with its filled cache
	cold      []byte           // the cold sweep's renders
	hc        *http.Client     // the one client connection
	fabDir    string           // the coordinators' run cache
	want      map[string]string
	co        *httptest.Server            // the coordinator memo-hit queries go to
	warmSpent [numWarmKinds]time.Duration // wall time per warm-path kind
}

// op books one operation and reports whether it passed. A non-nil err is
// a failed check: the operation counts as failed and the reason goes to
// the log.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

// guarded runs f, turning a panic into an error.
func guarded(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

func refKey(key experiment.CellKey, seed int64) string {
	return fmt.Sprintf("%s|%g|%s|%s|%d", key.Protocol, key.Speed, key.Adversary, key.Countermeasure, seed)
}

// sane checks a run's metrics and returns their canonical JSON.
func sane(m *mtsmetrics.RunMetrics) ([]byte, error) {
	doc, err := json.Marshal(m) // fails on NaN or Inf in any field
	if err != nil {
		return nil, err
	}
	if m.DeliveryRate < 0 || m.DeliveryRate > 1 {
		return nil, fmt.Errorf("delivery rate %g outside [0,1]", m.DeliveryRate)
	}
	if m.EventsRun == 0 {
		return nil, fmt.Errorf("no events run")
	}
	return doc, nil
}

// matchRef checks a run's metrics and compares their JSON with the
// reference for its cell and seed, adopting it as the reference when
// there is none yet.
func (b *bench) matchRef(key experiment.CellKey, m *mtsmetrics.RunMetrics) error {
	doc, err := sane(m)
	if err != nil {
		return err
	}
	k := refKey(key, m.Seed)
	want, ok := b.ref[k]
	if !ok {
		b.ref[k] = doc
		return nil
	}
	if !bytes.Equal(want, doc) {
		return fmt.Errorf("RunMetrics of %s differ from an earlier run of the same config and seed", k)
	}
	return nil
}

// heapCounters reads the cumulative heap allocation counters.
// runtime.ReadMemStats flushes every P's allocation cache first, so the
// counts are exact; runtime/metrics would count a small-object span only
// when it is swapped out, a whole span at a time.
func heapCounters() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// gcCPU reads the runtime's cumulative estimates of GC CPU seconds and of
// CPU seconds used (available minus idle).
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// execute runs the whole pipeline: the cold sweep and the cold query fill
// their stores, then the direct runs repeat the grid with the warm-path
// samples interleaved between them.
func (b *bench) execute() {
	b.ref = make(map[string][]byte)
	b.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer b.hc.CloseIdleConnections()
	defer func() {
		if b.co != nil {
			b.co.Close()
		}
	}()
	sw := b.w.sweep(b.seed)
	jobs := sw.Jobs()

	phase := func(name string, f func() bool) bool {
		// Each phase starts from a collected heap, returned to the OS:
		// the process's peak RSS is then one phase's peak, not that peak
		// stacked on a previous phase's garbage, whose size depends on
		// when the collector last ran.
		debug.FreeOSMemory()
		t0 := time.Now()
		ok := f()
		fmt.Fprintf(b.log, "%s: %.1fs, peak RSS %.1f MB so far\n", name, time.Since(t0).Seconds(), peakRSSMB())
		return ok
	}
	b.warmReady = phase("cold sweep", func() bool { return b.coldSweep(sw, len(jobs)) }) &&
		phase("cold query", b.coldQuery)
	phase("direct runs", func() bool { b.directPhase(directJobs(sw)); return true })
	// Top up to the minimum sample counts (a smoke run's direct phase is
	// too short to reach them), stopping at the first failure.
	for failed := b.failed; b.warmReady && failed == b.failed &&
		(len(b.sweepWarm) < minWarmSweeps || len(b.queryRepl) < minReplayRounds*len(experiment.PaperFigures()) ||
			len(b.queryWarm) < minWarmQueries); {
		b.warmSample()
	}

	for _, s := range []struct {
		name string
		xs   []float64
	}{{"warm sweep", b.sweepWarm}, {"replayed query", b.queryRepl}, {"memo-hit query", b.queryWarm}} {
		fmt.Fprintf(b.log, "%s: %d samples, fastest %.4g quartiles %.4g %.4g %.4g s\n",
			s.name, len(s.xs), fastest(s.xs), quantile(s.xs, 0.25), quantile(s.xs, 0.5), quantile(s.xs, 0.75))
	}
}

// coldSweep runs the grid through experiment.Sweep into an empty
// on-disk run cache: every cell is simulated and written. The cells'
// metrics become the references every later run must reproduce, and the
// filled cache serves the warm path.
func (b *bench) coldSweep(sw experiment.Sweep, cells int) bool {
	dir, err := os.MkdirTemp(b.dir, "sweep-")
	if !b.op("sweep cache dir", err) {
		return false
	}
	store, err := runcache.Open(dir)
	if !b.op("open sweep cache", err) {
		return false
	}
	sw.Parallelism = sweepParallelism
	sw.Cache = store
	if b.traced {
		b.cache = &timedCache{inner: store}
		b.simulate = &timedRunner{}
		sw.Cache = b.cache
		sw.Runner = b.simulate.run
		t0 := time.Now()
		for _, j := range sw.Jobs() {
			_, err := runcache.Key(j.Config)
			b.op("runcache key", err)
		}
		b.keyNs = float64(time.Since(t0).Nanoseconds()) / float64(cells)
	}
	return b.op("cold sweep", guarded(func() error {
		t0 := time.Now()
		res, err := sw.Run()
		b.sweepCold = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if res.CacheMisses != cells || res.CacheHits != 0 || res.CachePutErrs != 0 {
			return fmt.Errorf("%d misses, %d hits, %d put errors over %d cells",
				res.CacheMisses, res.CacheHits, res.CachePutErrs, cells)
		}
		for key, runs := range res.Runs {
			for _, m := range runs {
				if err := b.matchRef(key, m); err != nil {
					return err
				}
			}
		}
		b.cold, b.sw = b.render(res), sw
		return nil
	}))
}

// warmSweep runs the grid again: every cell must come from the cache, and
// the renders must equal the cold sweep's.
func (b *bench) warmSweep() {
	b.op("warm sweep", guarded(func() error {
		t0 := time.Now()
		res, err := b.sw.Run()
		b.sweepWarm = append(b.sweepWarm, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if cells := len(res.Sweep.Jobs()); res.CacheMisses != 0 || res.CacheHits != cells {
			return fmt.Errorf("%d hits, %d misses over %d cells", res.CacheHits, res.CacheMisses, cells)
		}
		if !bytes.Equal(b.render(res), b.cold) {
			return fmt.Errorf("renders differ from the cold sweep's")
		}
		return nil
	}))
}

// render is every figure view of a sweep result, as bytes.
func (b *bench) render(res *experiment.Result) []byte {
	var buf bytes.Buffer
	timed := func(s func() string) {
		t0 := time.Now()
		out := s()
		b.renderNs = append(b.renderNs, float64(time.Since(t0).Nanoseconds()))
		buf.WriteString(out)
	}
	for _, f := range experiment.PaperFigures() {
		timed(func() string { return res.Table(f) })
		timed(func() string { return res.CSV(f) })
	}
	if len(b.w.cms) > 0 {
		for _, f := range experiment.CountermeasureFigures() {
			for _, v := range b.w.speeds {
				for _, adv := range res.Sweep.AdversaryLabels() {
					timed(func() string { return res.CountermeasureTable(f, v, adv) })
					timed(func() string { return res.CountermeasureCSV(f, v, adv) })
				}
			}
		}
	}
	return buf.Bytes()
}

// startCoordinator opens the run cache in dir and brings a sweepd
// coordinator over it, on a loopback listener, to a ready /healthz,
// booking the set-up time.
func (b *bench) startCoordinator(dir string) (*httptest.Server, error) {
	t0 := time.Now()
	store, err := runcache.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := sweepfabric.NewServer(sweepfabric.NewBoard(store))
	srv.Base = b.w.base()
	ts := httptest.NewServer(srv)
	client := sweepfabric.NewClient(ts.URL)
	client.HTTP = b.hc
	if err := client.Healthz(); err != nil {
		ts.Close()
		return nil, err
	}
	b.readies = append(b.readies, time.Since(t0).Seconds())
	return ts, nil
}

// query asks a coordinator for one figure and checks the answer: status
// 200, the expected X-Sweepd-Simulated count and the expected body.
func (b *bench) query(base string, q url.Values, simulated int, want string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := b.hc.Get(base + "/v1/figure?" + q.Encode())
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Sweepd-Simulated"); got != strconv.Itoa(simulated) {
		return d, fmt.Errorf("X-Sweepd-Simulated %q, want %d", got, simulated)
	}
	if string(body) != want {
		return d, fmt.Errorf("body differs from the local Sweep.Run render")
	}
	return d, nil
}

// coldQuery asks a coordinator with an empty run cache for one figure
// over the query grid; its one worker leases and simulates every cell.
// The expected bodies are the local sweep engine's renders of the same
// grid, from cells simulated outside the fabric. The filled cache serves
// the replays.
func (b *bench) coldQuery() bool {
	qs := b.w.querySweep(b.seed)
	qs.Parallelism = sweepParallelism
	qs.Cache = b.sw.Cache
	b.want = map[string]string{}
	if !b.op("local query reference", guarded(func() error {
		res, err := qs.Run()
		if err != nil {
			return err
		}
		for _, f := range experiment.PaperFigures() {
			b.want[f.ID] = res.Table(f)
		}
		return nil
	})) {
		return false
	}
	b.coldCells = len(qs.Jobs())
	return b.op("cold query", guarded(func() error {
		dir, err := os.MkdirTemp(b.dir, "fabric-")
		if err != nil {
			return err
		}
		b.fabDir = dir
		co, err := b.startCoordinator(dir)
		if err != nil {
			return err
		}
		defer co.Close()
		client := sweepfabric.NewClient(co.URL)
		client.HTTP = b.hc
		var coord sweepfabric.Coordinator = client
		if b.traced {
			b.coord = &timedCoordinator{inner: client}
			coord = b.coord
		}
		worker := &sweepfabric.Worker{Coordinator: coord, Name: "bench", Parallel: sweepParallelism, Poll: workerPoll}
		wctx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			worker.Run(wctx) //nolint:errcheck // returns ctx.Err() once stopped
		}()
		defer func() {
			stop()
			<-done
		}()
		d, err := b.query(co.URL, b.w.query(b.seed, coldFig), b.coldCells, b.want[coldFig])
		b.queryCold = d.Seconds()
		return err
	}))
}

// replayRound restarts the coordinator over the warm run cache (memo
// cold, store warm) and asks it for every paper figure; none may be
// simulated. Memo-hit queries then go to this coordinator.
func (b *bench) replayRound() {
	if b.co != nil {
		b.co.Close()
		b.co = nil
	}
	co, err := b.startCoordinator(b.fabDir)
	if !b.op("restart coordinator", err) {
		return
	}
	b.co = co
	for _, f := range experiment.PaperFigures() {
		d, err := b.query(co.URL, b.w.query(b.seed, f.ID), 0, b.want[f.ID])
		b.queryRepl = append(b.queryRepl, d.Seconds())
		b.op("replay query "+f.ID, err)
	}
}

// warmQueries sends memo hits from one client, each when the previous
// one returned.
func (b *bench) warmQueries(n int) {
	q := b.w.query(b.seed, coldFig)
	for i := 0; i < n; i++ {
		d, err := b.query(b.co.URL, q, 0, b.want[coldFig])
		b.queryWarm = append(b.queryWarm, d.Seconds())
		b.op("warm query", err)
	}
}

// The warm-path kinds and the share of the warm-path time each gets. A
// replay round takes ten times a warm sweep or a memo-hit burst, so a
// turn-by-turn rotation would leave the warm sweeps a handful of samples;
// sharing the time keeps every timing's sample count in the hundreds.
const (
	warmReplay = iota
	warmSweepKind
	warmMemo
	numWarmKinds
)

var warmShare = [numWarmKinds]float64{warmReplay: 0.45, warmSweepKind: 0.4, warmMemo: 0.15}

// warmSample takes one sample of the warm-path kind furthest behind its
// share. The first is a replay round, which starts the coordinator the
// memo-hit queries go to.
func (b *bench) warmSample() {
	k := warmReplay
	if b.co != nil {
		for i := range b.warmSpent {
			if b.warmSpent[i].Seconds()/warmShare[i] < b.warmSpent[k].Seconds()/warmShare[k] {
				k = i
			}
		}
	}
	t0 := time.Now()
	switch k {
	case warmReplay:
		b.replayRound()
	case warmSweepKind:
		b.warmSweep()
	default:
		b.warmQueries(warmQueryBurst)
	}
	b.warmSpent[k] += time.Since(t0)
}

// warmTotal is the wall time spent on warm-path samples so far.
func (b *bench) warmTotal() time.Duration {
	var t time.Duration
	for _, d := range b.warmSpent {
		t += d
	}
	return t
}

// directPhase cycles the grid's cells through one scenario.Context on
// this goroutine, the way a sweep worker does, pass after pass. The
// first pass also warms the context. In a traced process the second pass
// is profiled and the third instrumented.
func (b *bench) directPhase(jobs []experiment.CellJob) {
	ctx := scenario.NewContext()
	best := make([]float64, len(jobs))
	for i := range best {
		best[i] = math.Inf(1)
	}
	// The pass count follows from --seconds alone, never from how fast
	// the host ran this time: the fastest of k runs sits lower the larger
	// k is, so a count that varied from run to run would move run_s.
	passes := minPasses
	if !b.traced {
		passes = max(passes, int(b.budget/passWall))
	}
	phaseStart := time.Now()
	for p := 0; p < passes; p++ {
		profiled := b.traced && p == 1
		var prof *profiler
		if profiled {
			prof = startProfile()
		}
		gc0, cpu0 := gcCPU()
		objs := make([]float64, 0, len(jobs))
		byts := make([]float64, 0, len(jobs))
		var events uint64
		var wall time.Duration
		for i, j := range jobs {
			if b.warmReady && !profiled {
				for b.warmTotal() < time.Duration(warmFrac*float64(time.Since(phaseStart))) {
					b.warmSample()
				}
			}
			o0, b0 := heapCounters()
			c0 := time.Now()
			ev, build, ok := b.runPlain(ctx, j)
			d := time.Since(c0)
			o1, b1 := heapCounters()
			if !ok {
				ctx = scenario.NewContext() // a failed run may leave it unusable
			}
			objs = append(objs, float64(o1-o0))
			byts = append(byts, float64(b1-b0))
			events += ev
			wall += d
			best[i] = math.Min(best[i], d.Seconds())
			if p > 0 {
				b.builds = append(b.builds, build)
			}
		}
		n := float64(len(jobs))
		b.allocs, b.allocB = typical(jobs, objs), typical(jobs, byts)
		if profiled {
			b.cpuProfile = prof.stop()
			if gc1, cpu1 := gcCPU(); cpu1 > cpu0 {
				b.gcPct = 100 * (gc1 - gc0) / (cpu1 - cpu0)
			}
			b.layers.nsPerEvent = float64(wall.Nanoseconds()) / float64(events)
			b.plainRunS = wall.Seconds() / n
		}
	}
	b.runS = typical(jobs, best)
	fmt.Fprintf(b.log, "direct runs: %d passes over %d cells\n", passes, len(jobs))
	if !b.traced {
		return
	}
	var wall time.Duration
	for _, j := range jobs {
		t0 := time.Now()
		b.runTraced(ctx, j)
		wall += time.Since(t0)
	}
	b.traceRunS = wall.Seconds() / float64(len(jobs))
}

// typical summarises a per-run value over the grid: the interquartile
// mean over each configuration's seeds, averaged over the
// configurations. A few seeds cost several times the typical run (a long
// route, repeated breaks); trimming the quartiles keeps one of them from
// moving the figure. The average over configurations keeps every
// protocol, attacker and defender in the figure.
func typical(jobs []experiment.CellJob, vals []float64) float64 {
	byKey := map[experiment.CellKey][]float64{}
	var keys []experiment.CellKey
	for i, j := range jobs {
		if _, ok := byKey[j.Key]; !ok {
			keys = append(keys, j.Key)
		}
		byKey[j.Key] = append(byKey[j.Key], vals[i])
	}
	var sum float64
	for _, k := range keys {
		sum += interquartileMean(byKey[k])
	}
	return sum / float64(len(keys))
}

// interquartileMean is the mean of the middle half of xs: of 24 values
// the middle 12, of 3 the middle one. One or two values are all kept.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo := (len(s) + 2) / 4
	if 2*lo >= len(s) {
		lo = 0
	}
	return mean(s[lo : len(s)-lo])
}

// runPlain builds, runs and retires one cell and checks its output. It
// returns the run's event count and build seconds, and whether it passed.
func (b *bench) runPlain(ctx *scenario.Context, j experiment.CellJob) (events uint64, build float64, ok bool) {
	ok = b.op("run", guarded(func() error {
		t0 := time.Now()
		s, err := ctx.Build(j.Config)
		if err != nil {
			return err
		}
		build = time.Since(t0).Seconds()
		m := s.Run()
		s.Retire()
		if lp, lf := s.Arena.LivePackets(), s.Arena.LiveFrames(); lp != 0 || lf != 0 {
			return fmt.Errorf("%d packets and %d frames live after Retire", lp, lf)
		}
		events = m.EventsRun
		return b.matchRef(j.Key, m)
	}))
	return events, build, ok
}

// runTraced is runPlain with the layer instrumentation on; its metrics
// must equal the untraced run's byte for byte.
func (b *bench) runTraced(ctx *scenario.Context, j experiment.CellJob) {
	b.op("traced run", guarded(func() error {
		s, err := ctx.Build(j.Config)
		if err != nil {
			return err
		}
		m := b.layers.run(s)
		s.Retire()
		if lp, lf := s.Arena.LivePackets(), s.Arena.LiveFrames(); lp != 0 || lf != 0 {
			return fmt.Errorf("%d packets and %d frames live after Retire", lp, lf)
		}
		return b.matchRef(j.Key, m)
	}))
}

// fastest is what the benchmark reports of the many short samples:
// warm-path timings and set-up times. The host is shared, and other
// tenants' load comes and goes within seconds: the same run of a fixed
// cell, repeated for 90 s, read a median 20-65 % above its fastest time
// in every 3 s window. Interference only ever adds time, so the fastest
// of a whole run's samples is the steadiest estimate of the work's own
// cost; its 5th percentile moved more from run to run on a loaded host.
// NaN for none.
func fastest(xs []float64) float64 {
	return quantile(xs, 0)
}

// median returns the middle value (the mean of the two middle values
// for an even count); NaN for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between order
// statistics; NaN for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// workDir makes the process's working directory under root.
func workDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
