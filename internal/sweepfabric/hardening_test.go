package sweepfabric

// Regression tests for the fabric's trust and accounting boundaries:
// malformed keys from the network must bounce at the HTTP surface
// without reaching the board's lock or the store's filesystem, stale
// failure reports must not poison re-leased cells, late completions must
// rebalance the done/failed ledger, and the lease leg must never be
// retried at the transport layer.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

// TestMalformedKeysBounceAtTheHTTPBoundary: /v1/wait and /v1/entry are
// the two endpoints that feed client-supplied keys toward the store. A
// key that is not a content address is a 400, and the board stays fully
// responsive afterwards — the pre-fix behaviour was a panic under
// Board.mu that deadlocked every later lease and wait.
func TestMalformedKeysBounceAtTheHTTPBoundary(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()

	for _, body := range []string{
		`{"keys":["zz"],"timeout_ms":50}`,
		`{"keys":["../../etc/passwd"],"timeout_ms":50}`,
		`{"keys":[""],"timeout_ms":50}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/wait", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait on malformed key: HTTP %d, want 400 (body %s)", resp.StatusCode, body)
		}
	}
	for _, key := range []string{"zz", "..%2F..%2Fvictim", strings.Repeat("g", 64)} {
		resp, err := http.Get(srv.URL + "/v1/entry?key=" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("entry %q: HTTP %d, want 400", key, resp.StatusCode)
		}
	}

	// The board's mutex survived every malformed request: leasing and
	// stats still answer (a poisoned lock would hang the test here), and
	// a direct wait on an unknown-but-well-formed key times out cleanly.
	if grant, err := board.Lease("probe", 1); err != nil || grant.Status != StatusDone {
		t.Fatalf("board unresponsive after malformed keys: grant=%+v err=%v", grant, err)
	}
	st, err := board.WaitFor(nil, []string{strings.Repeat("ab", 32)}, 10*time.Millisecond)
	if err != nil || st.Remaining != 1 {
		t.Fatalf("well-formed unknown key: st=%+v err=%v", st, err)
	}
	if stats := board.Stats(); stats.CellsEnqueued != 0 {
		t.Fatalf("malformed requests mutated the ledger: %+v", stats)
	}
}

// TestStaleFailureReportIgnored: a failure filed under an expired lease
// must not count against the cell's attempt budget while a re-lease is
// in flight — pre-fix it could mark the cell permanently failed and
// fail-fast a wait that would have succeeded.
func TestStaleFailureReportIgnored(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	board.Now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	board.TTL = time.Minute
	board.MaxAttempts = 2

	s := quickSweep()
	jobs := s.Jobs()[:1]
	sum, err := board.Enqueue(jobs)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := board.Lease("slow", 1)
	if err != nil || slow.Status != StatusLease {
		t.Fatalf("first lease: %+v err=%v", slow, err)
	}
	// The slow worker's lease expires; the cell is re-leased elsewhere.
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	fast, err := board.Lease("fast", 1)
	if err != nil || fast.Status != StatusLease {
		t.Fatalf("re-lease after expiry: %+v err=%v", fast, err)
	}
	// The slow worker finally reports its failure under the dead lease.
	// MaxAttempts is 2 and both grants are spent, so pre-fix this marked
	// the cell permanently failed while the fast worker was mid-run.
	if err := board.Fail("slow", slow.LeaseID, jobs[0], "stale: watchdog killed me ages ago"); err != nil {
		t.Fatal(err)
	}
	stats := board.Stats()
	if stats.CellsFailed != 0 || stats.Requeues != 0 {
		t.Fatalf("stale failure report counted: %+v", stats)
	}
	if ws := stats.Workers["slow"]; ws != nil && ws.Failed != 0 {
		t.Fatalf("stale failure booked against worker: %+v", ws)
	}
	// The live run completes normally.
	m, err := scenario.RunOne(jobs[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := board.Complete("fast", fast.LeaseID, jobs[0], m, false); err != nil {
		t.Fatal(err)
	}
	st, err := board.WaitFor(nil, sum.Keys, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || len(st.Failed) != 0 {
		t.Fatalf("cell not cleanly done after stale report: %+v", st)
	}
	// And a failure under the *live* lease still counts.
	if err := board.Fail("fast", fast.LeaseID, jobs[0], "late"); err != nil {
		t.Fatal(err)
	}
	if stats := board.Stats(); stats.CellsFailed != 0 || stats.CellsDone != 1 {
		t.Fatalf("failure report on a done cell mutated the ledger: %+v", stats)
	}
}

// TestLateCompletionResurrectsFailedCell: a completion arriving after
// the board gave up on a cell moves it from the failed column to done —
// pre-fix it incremented CellsDone on top of CellsFailed, so the ledger
// over-counted and idle detection (StatusDone) never triggered.
func TestLateCompletionResurrectsFailedCell(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	board.MaxAttempts = 1

	s := quickSweep()
	jobs := s.Jobs()[:1]
	sum, err := board.Enqueue(jobs)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := board.Lease("w", 1)
	if err != nil || grant.Status != StatusLease {
		t.Fatalf("lease: %+v err=%v", grant, err)
	}
	if err := board.Fail("w", grant.LeaseID, jobs[0], "injected"); err != nil {
		t.Fatal(err)
	}
	if stats := board.Stats(); stats.CellsFailed != 1 {
		t.Fatalf("cell not permanently failed: %+v", stats)
	}
	// A straggler (or a client warming the store) publishes the result.
	m, err := scenario.RunOne(jobs[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := board.Complete("straggler", 0, jobs[0], m, false); err != nil {
		t.Fatal(err)
	}
	stats := board.Stats()
	if stats.CellsDone != 1 || stats.CellsFailed != 0 {
		t.Fatalf("resurrection left the ledger unbalanced: %+v", stats)
	}
	if stats.CellsDone+stats.CellsFailed > stats.CellsEnqueued {
		t.Fatalf("done+failed exceeds enqueued: %+v", stats)
	}
	// Idle detection works again: nothing pending, nothing in flight.
	if grant, err := board.Lease("later", 1); err != nil || grant.Status != StatusDone {
		t.Fatalf("board not idle after resurrection: %+v err=%v", grant, err)
	}
	st, err := board.WaitFor(nil, sum.Keys, time.Second)
	if err != nil || st.Done != 1 || len(st.Failed) != 0 {
		t.Fatalf("wait after resurrection: %+v err=%v", st, err)
	}
}

// TestLeaseNotRetriedOnTransportError: a lost lease-grant response must
// not be retried into a second lease (the first grant's cells would sit
// leased until TTL) — workers treat the error as an idle poll instead.
// Other POST legs keep their retry budget.
func TestLeaseNotRetriedOnTransportError(t *testing.T) {
	var mu sync.Mutex
	hits := make(map[string]int)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits[r.URL.Path]++
		mu.Unlock()
		http.Error(w, `{"error":"injected outage"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	client := NewClient(srv.URL)
	client.Retries = 2
	client.Backoff = time.Millisecond

	if _, err := client.Lease("w", 1); err == nil {
		t.Fatal("lease against a 500 server reported success")
	}
	if _, err := client.Enqueue(nil); err == nil {
		t.Fatal("enqueue against a 500 server reported success")
	}
	mu.Lock()
	defer mu.Unlock()
	if hits["/v1/lease"] != 1 {
		t.Fatalf("lease attempted %d times, want exactly 1 (no transport retry)", hits["/v1/lease"])
	}
	if hits["/v1/enqueue"] != 3 {
		t.Fatalf("enqueue attempted %d times, want 3 (retries intact)", hits["/v1/enqueue"])
	}
}

// TestQueryKeyEscapesSeparators: two distinct figure queries must never
// share a rendered-memo key. Pre-fix, a value smuggling '=' and '&'
// bytes collided with the query that spelt the same bytes structurally,
// serving one query's cached body for the other.
func TestQueryKeyEscapesSeparators(t *testing.T) {
	smuggled := url.Values{"fig": {"x"}, "protocols": {"a&z=1"}}
	structural := url.Values{"fig": {"x"}, "protocols": {"a"}, "z": {"1"}}
	if queryKey(smuggled) == queryKey(structural) {
		t.Fatalf("memo key collision: %q", queryKey(smuggled))
	}
	// Order-insensitivity is preserved.
	a := url.Values{"fig": {"x"}, "format": {"csv"}}
	b := url.Values{"format": {"csv"}, "fig": {"x"}}
	if queryKey(a) != queryKey(b) {
		t.Fatal("queryKey became order-sensitive")
	}
	// And the timeout parameter still doesn't shape the key.
	c := url.Values{"fig": {"x"}, "format": {"csv"}, "timeout": {"30s"}}
	if queryKey(a) != queryKey(c) {
		t.Fatal("timeout leaked into the memo key")
	}
}

// TestFigureQueryRejectsNonFiniteNumbers: strconv.ParseFloat accepts "NaN"
// and "Inf", and NaN passes every ordered range check, so the speed,
// duration and tcpstart parameters must be checked for finiteness at the
// HTTP boundary: each bad value is a 400 before any cell is enqueued.
func TestFigureQueryRejectsNonFiniteNumbers(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	server := NewServer(board)
	srv := httptest.NewServer(server)
	defer srv.Close()

	for _, tc := range []struct{ param, value string }{
		{"speeds", "NaN"},
		{"speeds", "2,Inf"},
		{"speeds", "-Inf"},
		{"speeds", "-1"},
		{"duration", "NaN"},
		{"duration", "+Inf"},
		{"duration", "0"},
		{"tcpstart", "NaN"},
		{"tcpstart", "Inf"},
		{"tcpstart", "-1"},
	} {
		q := url.Values{"fig": {"fig9"}, "reps": {"1"}, tc.param: {tc.value}}
		resp, err := http.Get(srv.URL + "/v1/figure?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s=%s: HTTP %d, want 400", tc.param, tc.value, resp.StatusCode)
		}
	}
	if st := board.Stats(); st.CellsEnqueued != 0 {
		t.Fatalf("rejected queries enqueued cells: %+v", st)
	}

	// Finite values still parse.
	sweep, err := server.sweepFromQuery(url.Values{
		"speeds": {"0,2.5"}, "duration": {"12"}, "tcpstart": {"0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sweep.Speeds, []float64{0, 2.5}) || sweep.Base.Duration != 12*sim.Second || sweep.Base.TCPStart != 0 {
		t.Fatalf("finite query parsed as speeds %v duration %v tcpstart %v",
			sweep.Speeds, sweep.Base.Duration, sweep.Base.TCPStart)
	}
}

// TestFigureQueryRejectsUnknownParamsAndProtocols: a misspelt parameter
// used to be ignored (serving, and memoising, the default grid), and an
// unknown protocol used to enqueue cells that could only fail. Both are
// a 400 before the memo is consulted or any cell is enqueued.
func TestFigureQueryRejectsUnknownParamsAndProtocols(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	board := NewBoard(store)
	server := NewServer(board)
	srv := httptest.NewServer(server)
	defer srv.Close()

	for _, q := range []url.Values{
		{"fig": {"fig9"}, "speed": {"5"}},
		{"fig": {"fig9"}, "reps": {"1"}, "Speeds": {"5"}},
		{"fig": {"fig9"}, "reps": {"1"}, "protocols": {"MTS,NOPE"}},
		{"fig": {"fig9"}, "reps": {"1"}, "protocols": {"mts"}},
		{"fig": {"fig9"}, "reps": {"1"}, "protocols": {"MTS,"}},
	} {
		// Plant a memo entry under the query's key: the check must run
		// before the lookup, or the planted body would be served.
		server.rendered.put(queryKey(q), renderedQuery{body: "planted", format: "table"})
		resp, err := http.Get(srv.URL + "/v1/figure?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", q.Encode(), resp.StatusCode)
		}
	}
	if st := board.Stats(); st.CellsEnqueued != 0 {
		t.Fatalf("rejected queries enqueued cells: %+v", st)
	}

	// Every allowed parameter and every protocol still passes the check.
	ok := url.Values{"fig": {"fig9"}, "format": {"csv"}, "timeout": {"1s"},
		"protocols": {strings.Join(scenario.AllProtocols(), ",")}, "speeds": {"2"},
		"reps": {"1"}, "seedbase": {"3"}, "nodes": {"10"}, "duration": {"5"}, "tcpstart": {"1"}}
	if _, err := server.sweepFromQuery(ok); err != nil {
		t.Fatal(err)
	}
}
