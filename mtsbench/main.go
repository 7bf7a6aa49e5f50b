// Command mtsbench is mtsim's benchmark. One process runs one workload —
// paper-50, scale-1000 or sweep — through the same pipeline: a cold
// experiment.Sweep of the workload's grid into an empty on-disk run cache,
// a cold sweepd figure query that a worker simulates, then the grid's
// cells run directly on one scenario.Context, pass after pass, with warm
// sweeps, replayed queries and memo-hit queries interleaved. It checks
// every output it produces and prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Without -trace it reports the end-to-end metrics; with -trace 1 it
// instruments the layers from the benchmark's side and reports the
// per-layer metrics instead. See README.md.
//
// Usage:
//
//	bash mtsbench/run.sh --workload paper-50 --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"mtsim/internal/runcache"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mtsbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: paper-50, scale-1000 or sweep")
	seed := fl.Int64("seed", 1, "seed base: the workload's seeds are seed, seed+1, ...")
	seconds := fl.Float64("seconds", 10, "measuring budget in seconds")
	trace := fl.Int("trace", 0, "1 reports the per-layer metrics of an instrumented run")
	root := fl.String("root", ".", "repository root: working files and source digest")
	smoke := fl.Bool("smoke", false, "run a seconds-long version of the workload (self-test)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "mtsbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if *smoke {
		w = w.smoke()
	}
	dir, err := workDir(*root)
	if err != nil {
		fmt.Fprintln(stderr, "mtsbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		w:      w,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		dir:    dir,
		log:    stderr,
	}
	b.execute()
	var ms map[string]metric
	if b.traced {
		ms = b.perLayer()
	} else {
		ms = b.endToEnd()
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.op("metric "+k, fmt.Errorf("not measured"))
			ms[k] = metric{Value: 0, Unit: m.Unit}
		}
	}

	prov, err := json.Marshal(provenance(*root, w.name, *seed, *seconds, *trace))
	if err != nil {
		fmt.Fprintln(stderr, "mtsbench:", err)
		return 1
	}
	out, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintln(stderr, "mtsbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", prov, out)
	return 0
}

// endToEnd is what a user of the simulator sees.
func (b *bench) endToEnd() map[string]metric {
	okRatio := math.NaN()
	if b.attempted > 0 {
		okRatio = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	return map[string]metric{
		"setup_s":             {fastest(b.builds) + fastest(b.readies), "s"},
		"run_s":               {b.runS, "s"},
		"allocs_per_run":      {b.allocs, "count"},
		"alloc_bytes_per_run": {b.allocB, "B"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"ok_ratio":            {okRatio, "ratio"},
		"sweep_warm_ms":       {1e3 * fastest(b.sweepWarm), "ms"},
		"query_replay_ms":     {1e3 * fastest(b.queryRepl), "ms"},
	}
}

// perLayer is the instrumented run's split by layer.
func (b *bench) perLayer() map[string]metric {
	l := &b.layers
	ms := map[string]metric{
		"scenario.build_ms":             {1e3 * median(b.builds), "ms"},
		"sim.events_per_run":            {l.perRun(l.events), "count"},
		"sim.ns_per_event":              {l.nsPerEvent, "ns"},
		"sim.heap_depth_max":            {float64(l.heapMax), "count"},
		"runtime.gc_pct":                {b.gcPct, "%"},
		"mac.frames_per_run":            {l.perRun(l.macFrames), "count"},
		"mac.retries_per_run":           {l.perRun(l.macRetries), "count"},
		"mac.queue_drops_per_run":       {l.perRun(l.macDrops), "count"},
		"mac.queue_depth_max":           {float64(l.queueMax), "count"},
		"routing.calls_per_run":         {l.perRun(l.calls), "count"},
		"routing.receive_us":            {meanUs(l.receiveNs, int64(l.receives)), "us"},
		"routing.control_pkts_per_run":  {l.perRun(l.control), "count"},
		"tcp.segments_per_run":          {l.perRun(l.tcpSegs), "count"},
		"tcp.retransmits_per_run":       {l.perRun(l.tcpRetx), "count"},
		"tcp.timeouts_per_run":          {l.perRun(l.tcpTOs), "count"},
		"app.cbr_sent_per_run":          {l.perRun(l.cbrSent), "count"},
		"packet.acquired_per_run":       {l.perRun(l.acquired), "count"},
		"runcache.key_us":               {b.keyNs / 1e3, "us"},
		"experiment.render_us":          {mean(b.renderNs) / 1e3, "us"},
		"experiment.sweep_cold_s":       {b.sweepCold, "s"},
		"sweepfabric.query_cold_s":      {b.queryCold, "s"},
		"sweepfabric.ready_ms":          {1e3 * median(b.readies), "ms"},
		"sweepfabric.query_warm_us":     {1e6 * median(b.queryWarm), "us"},
		"sweepfabric.query_warm_p99_us": {1e6 * quantile(b.queryWarm, 0.99), "us"},
		"sweepfabric.cells_simulated":   {float64(b.coldCells), "count"},
		"trace.overhead_pct":            {100 * (b.traceRunS/b.plainRunS - 1), "%"},
	}
	// The decorators exist only once their phase started; a phase that
	// failed before leaves its metrics unmeasured.
	nan := math.NaN()
	get, put, sim, lease, complete, empty := nan, nan, nan, nan, nan, nan
	if c := b.cache; c != nil {
		get, put = meanUs(c.getNs.Load(), c.gets.Load()), meanUs(c.putNs.Load(), c.puts.Load())
	}
	if r := b.simulate; r != nil {
		sim = meanUs(r.ns.Load(), r.runs.Load()) / 1e6
	}
	if c := b.coord; c != nil {
		lease, complete = meanUs(c.leaseNs.Load(), c.leases.Load()), meanUs(c.completeNs.Load(), c.completes.Load())
		empty = float64(c.empty.Load())
	}
	ms["runcache.get_us"] = metric{get, "us"}
	ms["runcache.put_us"] = metric{put, "us"}
	ms["experiment.simulate_s"] = metric{sim, "s"}
	ms["sweepfabric.lease_rtt_us"] = metric{lease, "us"}
	ms["sweepfabric.complete_rtt_us"] = metric{complete, "us"}
	ms["sweepfabric.empty_leases"] = metric{empty, "count"}
	shares, err := selfShares(b.cpuProfile)
	b.op("cpu profile", err)
	for _, layer := range selfLayers {
		ms[layer+".self_pct"] = metric{shares[layer], "%"}
	}
	return ms
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance says where and on what a result was measured.
func provenance(root, workload string, seed int64, seconds float64, trace int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	digest, err := sourceDigest(root)
	if err != nil {
		digest = "unknown: " + err.Error()
	}
	return map[string]any{
		"provenance":      true,
		"workload":        workload,
		"seed":            seed,
		"seconds":         seconds,
		"trace":           trace,
		"cpu":             cpuModel(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"goarch":          runtime.GOARCH,
		"commit":          commit,
		"source_sha256":   digest,
		"runcache_schema": runcache.SchemaVersion,
	}
}

// cpuModel reads the CPU model name on Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root (paths and
// contents, in path order), identifying the measured code where no git
// commit is available.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", errors.New("no Go sources")
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
