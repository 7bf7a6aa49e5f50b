package sweepfabric

// The fabric's core contract under test: a sweep sharded across workers
// over HTTP reproduces a single-process Sweep.Run byte-for-byte, with
// crash tolerance (dead worker → lease expiry → re-lease → cache hit)
// and a warm query path that simulates nothing.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mtsim/internal/experiment"
	"mtsim/internal/metrics"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

func quickBase() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Nodes = 20
	cfg.Duration = 5 * sim.Second
	cfg.TCPStart = sim.Time(500 * sim.Millisecond)
	return cfg
}

func quickSweep() experiment.Sweep {
	return experiment.Sweep{
		Base:      quickBase(),
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{2, 10},
		Reps:      2,
		SeedBase:  5,
	}
}

// renderAll renders every paper figure as table+CSV — the byte-equality
// oracle used across these tests.
func renderAll(res *experiment.Result) string {
	var out string
	for _, fig := range experiment.PaperFigures() {
		out += res.Table(fig) + "\n" + res.CSV(fig) + "\n"
	}
	return out
}

// singleProcess runs the reference sweep the classic way.
func singleProcess(t *testing.T, s experiment.Sweep) string {
	t.Helper()
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = store
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return renderAll(res)
}

// TestFabricSweepByteIdenticalOverHTTP shards the sweep across two
// workers talking to the coordinator over real HTTP, then aggregates
// through a tiered remote cache — and the rendered figures must be
// byte-identical to the single-process run.
func TestFabricSweepByteIdenticalOverHTTP(t *testing.T) {
	s := quickSweep()
	want := singleProcess(t, s)

	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	client := NewClient(srv.URL)

	jobs := s.Jobs()
	sum, err := client.Enqueue(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queued != len(jobs) {
		t.Fatalf("enqueued %d of %d jobs", sum.Queued, len(jobs))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &Worker{
			Coordinator: NewClient(srv.URL),
			Name:        fmt.Sprintf("w%d", i),
			Batch:       2,
			Poll:        10 * time.Millisecond,
			IdleExit:    300 * time.Millisecond,
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}

	st, err := client.Wait(sum.Keys, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.Remaining != 0 || len(st.Failed) != 0 {
		t.Fatalf("wait ended with %d remaining, %d failed", st.Remaining, len(st.Failed))
	}
	wg.Wait()

	// Aggregate client-side through the tiered cache: every cell is a
	// remote hit, zero local simulation.
	local, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = &TieredCache{Local: local, Remote: &RemoteCache{Client: client}}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 0 {
		t.Fatalf("fabric aggregation simulated %d cells locally", res.CacheMisses)
	}
	if got := renderAll(res); got != want {
		t.Fatalf("fabric sweep diverged from single-process run:\n--- fabric ---\n%s\n--- single ---\n%s", got, want)
	}

	// The remote hits were backfilled into the local tier: a rerun
	// touches only local disk.
	s2 := quickSweep()
	s2.Cache = local
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheMisses != 0 {
		t.Fatalf("local tier missing %d backfilled cells", res2.CacheMisses)
	}
	if got := renderAll(res2); got != want {
		t.Fatal("local-tier replay diverged")
	}

	stats := board.Stats()
	if stats.CellsDone != len(jobs) {
		t.Fatalf("board counted %d done cells, want %d", stats.CellsDone, len(jobs))
	}
	if len(stats.Workers) == 0 {
		t.Fatal("board kept no per-worker stats")
	}
}

// TestDeadWorkerLeaseExpiresAndResumes: a worker claims cells and dies
// without reporting. Its lease expires (driven by an injected clock)
// and a live worker finishes the grid; the aggregates are byte-identical
// to the single-process run.
func TestDeadWorkerLeaseExpiresAndResumes(t *testing.T) {
	s := quickSweep()
	want := singleProcess(t, s)

	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	board.Now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	board.TTL = time.Minute

	jobs := s.Jobs()
	sum, err := board.Enqueue(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker claims a batch and vanishes.
	grant, err := board.Lease("doomed", 3)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Status != StatusLease || len(grant.Cells) != 3 {
		t.Fatalf("doomed worker got %+v", grant.Status)
	}

	// Before the TTL passes, those cells are invisible to other workers
	// once the rest of the queue drains — drain it now.
	live := &Worker{
		Coordinator: board,
		Name:        "live",
		Batch:       4,
		Poll:        5 * time.Millisecond,
		IdleExit:    100 * time.Millisecond,
	}
	if err := live.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, _ := board.WaitFor(nil, sum.Keys, 10*time.Millisecond)
	if st.Remaining != len(grant.Cells) {
		t.Fatalf("%d cells remaining while the dead worker's lease is live, want %d", st.Remaining, len(grant.Cells))
	}

	// Advance past the TTL: the lease expires, the cells requeue, and a
	// second pass by the live worker completes the grid.
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if err := live.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err = board.WaitFor(nil, sum.Keys, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Remaining != 0 || len(st.Failed) != 0 {
		t.Fatalf("grid not recovered: %d remaining, %d failed", st.Remaining, len(st.Failed))
	}
	if stats := board.Stats(); stats.LeasesExpired == 0 {
		t.Fatal("no lease expired — the test exercised nothing")
	}

	s.Cache = store
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 0 {
		t.Fatalf("recovered grid still missing %d cells", res.CacheMisses)
	}
	if got := renderAll(res); got != want {
		t.Fatal("post-crash aggregates diverged from single-process run")
	}
}

// TestBoardFailsCellAfterAttemptBudget: a cell that fails on every
// lease is requeued until the board's attempt budget is spent, then
// surfaces as a permanent failure in WaitFor.
func TestBoardFailsCellAfterAttemptBudget(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	board.MaxAttempts = 2

	s := quickSweep()
	jobs := s.Jobs()[:1]
	sum, err := board.Enqueue(jobs)
	if err != nil {
		t.Fatal(err)
	}
	poison := &Worker{
		Coordinator: board,
		Name:        "poison",
		Poll:        time.Millisecond,
		IdleExit:    50 * time.Millisecond,
		Exec: experiment.Executor{
			Runner: func(ctx *scenario.Context, cfg scenario.Config, w experiment.Watchdog) (*metrics.RunMetrics, error) {
				return nil, errors.New("injected: cell always fails")
			},
		},
	}
	if err := poison.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := board.WaitFor(nil, sum.Keys, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 1 {
		t.Fatalf("wait reported %d failures, want 1", len(st.Failed))
	}
	if st.Failed[0].Attempts != 2 {
		t.Fatalf("cell consumed %d board attempts, want 2", st.Failed[0].Attempts)
	}
	stats := board.Stats()
	if stats.CellsFailed != 1 || stats.Requeues != 1 {
		t.Fatalf("stats = %+v, want 1 failed / 1 requeue", stats)
	}
	// A later worker with a healthy runner cannot resurrect it without
	// re-enqueueing — the board answers StatusDone (nothing leasable).
	grant, err := board.Lease("late", 1)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Status != StatusDone {
		t.Fatalf("failed cell still leasable: %+v", grant)
	}
}

// TestFigureQueryWarmPath: the first figure query pushes the grid
// through local workers; the second is served from the rendered memo
// without touching the engine at all.
func TestFigureQueryWarmPath(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	fs := NewServer(board)
	fs.Base = quickBase()
	srv := httptest.NewServer(fs)
	defer srv.Close()

	// A resident worker fleet, as `sweepd serve -local-workers` runs.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: board, Name: "resident", Parallel: 2, Batch: 2, Poll: 5 * time.Millisecond}
	go w.Run(ctx)

	url := srv.URL + "/v1/figure?fig=fig5&protocols=AODV,MTS&speeds=2,10&reps=2&seedbase=5"
	get := func() (*http.Response, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, cold := get()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query: HTTP %d: %s", resp.StatusCode, cold)
	}
	if resp.Header.Get("X-Sweepd-Query") != "rendered" {
		t.Fatalf("cold query header %q", resp.Header.Get("X-Sweepd-Query"))
	}
	if resp.Header.Get("X-Sweepd-Simulated") == "0" {
		t.Fatal("cold query claims zero simulated cells")
	}

	resp, warm := get()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Sweepd-Query") != "warm" {
		t.Fatalf("warm query not served from memo: %q", resp.Header.Get("X-Sweepd-Query"))
	}
	if resp.Header.Get("X-Sweepd-Simulated") != "0" {
		t.Fatalf("warm query simulated %s cells", resp.Header.Get("X-Sweepd-Simulated"))
	}
	if warm != cold {
		t.Fatal("warm and cold renders differ")
	}

	// And the oracle: the served table is byte-identical to a local
	// sweep's render of fig5.
	s := quickSweep()
	ref, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = ref
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	fig, _ := experiment.FigureByID("fig5")
	if want := res.Table(fig); warm != want {
		t.Fatalf("served table diverged:\n--- served ---\n%s\n--- local ---\n%s", warm, want)
	}

	// Unknown figure IDs are a 400 with guidance, not a silent sweep.
	resp2, err := http.Get(srv.URL + "/v1/figure?fig=fig12")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown figure: HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestMemoEvictsLeastRecentlyUsed: past its cap the memo drops the entry
// used longest ago, where a get counts as a use and a put of a present
// key refreshes it without growing the memo.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMemo(3)
	put := func(k string) { m.put(k, renderedQuery{body: k}) }
	put("a")
	put("b")
	put("c")
	m.get("a") // order, most recent first: a c b
	put("d")   // evicts b
	if _, ok := m.get("b"); ok {
		t.Fatal("b survived, though it was the least recently used")
	}
	put("c") // refresh, no growth: c d a
	put("e") // evicts a
	for k, want := range map[string]bool{"a": false, "c": true, "d": true, "e": true} {
		if rq, ok := m.get(k); ok != want || (ok && rq.body != k) {
			t.Errorf("get(%q) = %q, %v; want present=%v", k, rq.body, ok, want)
		}
	}
	if len(m.entries) != 3 {
		t.Fatalf("memo holds %d entries, cap 3", len(m.entries))
	}
}

// TestEvictedQueryRendersAgain: a query evicted from a full memo is
// rendered afresh from the store on its next request — answered
// "rendered", not "warm" — with the same bytes it was first served.
func TestEvictedQueryRendersAgain(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	fs := NewServer(board)
	fs.Base = quickBase()
	fs.rendered = newMemo(2)
	srv := httptest.NewServer(fs)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: board, Name: "resident", Parallel: 2, Batch: 2, Poll: 5 * time.Millisecond}
	go w.Run(ctx)

	// Three figures over one small grid: only the first query simulates.
	get := func(fig string) (string, string) {
		resp, err := http.Get(srv.URL + "/v1/figure?fig=" + fig + "&protocols=AODV&speeds=2&reps=1&seedbase=5")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", fig, resp.StatusCode, body)
		}
		return resp.Header.Get("X-Sweepd-Query"), string(body)
	}
	for _, step := range []struct{ fig, want string }{
		{"fig5", "rendered"},
		{"fig6", "rendered"},
		{"fig5", "warm"},     // fig5 is now the most recently used
		{"fig7", "rendered"}, // evicts fig6
		{"fig5", "warm"},
	} {
		if got, _ := get(step.fig); got != step.want {
			t.Fatalf("%s answered %q, want %q", step.fig, got, step.want)
		}
	}
	_, first := get("fig7") // warm: fig7 fig5
	get("fig6")             // evicts fig5: fig6 fig7
	get("fig5")             // evicts fig7: fig5 fig6
	kind, again := get("fig7")
	if kind != "rendered" {
		t.Fatalf("evicted fig7 answered %q, want rendered", kind)
	}
	if again != first {
		t.Fatalf("evicted fig7 rendered different bytes:\n--- first ---\n%s\n--- again ---\n%s", first, again)
	}
}

// BenchmarkWarmFigureQuery measures the memoised query path — the
// number PERFORMANCE.md's "Sweep fabric" section reports.
func BenchmarkWarmFigureQuery(b *testing.B) {
	store, err := runcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	board := NewBoard(store)
	fs := NewServer(board)
	fs.Base = quickBase()
	srv := httptest.NewServer(fs)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: board, Name: "resident", Parallel: 2, Batch: 2, Poll: 5 * time.Millisecond}
	go w.Run(ctx)

	url := srv.URL + "/v1/figure?fig=fig5&protocols=AODV,MTS&speeds=2,10&reps=2&seedbase=5"
	warm := func() *http.Response {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}
	if resp := warm(); resp.StatusCode != http.StatusOK {
		b.Fatalf("cold fill failed: HTTP %d", resp.StatusCode)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := warm(); resp.Header.Get("X-Sweepd-Query") != "warm" {
			b.Fatal("query fell off the warm path")
		}
	}
}
