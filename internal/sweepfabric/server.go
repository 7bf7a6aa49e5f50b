package sweepfabric

// HTTP face of the Board plus the warm query path. The figure endpoint
// is the fabric's reason to exist: it enqueues the figure's grid, waits
// for the fleet to fill the store, then aggregates with the ordinary
// Sweep.Run — all cache hits, byte-identical to a single-process sweep —
// and memoises the rendered text, so a warm re-query skips the engine.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mtsim/internal/experiment"
	"mtsim/internal/metrics"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

// Server serves the fabric protocol over HTTP: lease endpoints for
// workers, enqueue/wait/entry endpoints for sweep clients, figure
// queries for humans, and health/stats for operators.
type Server struct {
	board *Board
	mux   *http.ServeMux

	// Base is the figure queries' base configuration. Zero-value means
	// scenario.DefaultConfig.
	Base scenario.Config
	// QueryTimeout bounds how long a cold figure query waits for the
	// fleet before returning 503. Zero means DefaultQueryTimeout.
	QueryTimeout time.Duration

	mu       sync.Mutex
	rendered *memo
	qstats   QueryStats
}

// DefaultQueryTimeout bounds cold figure queries.
const DefaultQueryTimeout = 5 * time.Minute

// QueryStats counts the figure endpoint's activity.
type QueryStats struct {
	Queries    int `json:"queries"`     // figure requests answered 200
	WarmHits   int `json:"warm_hits"`   // served from the rendered-query memo
	StoreOnly  int `json:"store_only"`  // aggregated from the store, zero cells simulated
	ColdCells  int `json:"cold_cells"`  // cells a query had to push through the fleet
	InlineRuns int `json:"inline_runs"` // cells the aggregation pass simulated itself (fallback)
}

type renderedQuery struct {
	body   string
	format string
}

// memoCap bounds the rendered-query memo. Every distinct valid query
// would otherwise add an entry for good (seedbase alone spans every
// int64); a client re-asking the paper's figures needs a handful.
const memoCap = 1024

// memo is the rendered-query memo: a map that evicts its least recently
// used entry beyond cap entries. The Server's mutex guards it.
type memo struct {
	cap     int
	clock   uint64 // advanced by every get and put
	entries map[string]*memoEntry
}

type memoEntry struct {
	rq   renderedQuery
	used uint64 // clock at the entry's last get or put
}

func newMemo(cap int) *memo { return &memo{cap: cap, entries: make(map[string]*memoEntry)} }

// get returns the entry for key and marks it most recently used.
func (m *memo) get(key string) (renderedQuery, bool) {
	e, ok := m.entries[key]
	if !ok {
		return renderedQuery{}, false
	}
	m.clock++
	e.used = m.clock
	return e.rq, true
}

// put stores rq under key as the most recently used entry. Eviction scans
// the memo, but only a rendered query puts, and that has just aggregated
// a whole sweep.
func (m *memo) put(key string, rq renderedQuery) {
	m.clock++
	m.entries[key] = &memoEntry{rq: rq, used: m.clock}
	if len(m.entries) <= m.cap {
		return
	}
	oldest := key
	for k, e := range m.entries {
		if e.used < m.entries[oldest].used {
			oldest = k
		}
	}
	delete(m.entries, oldest)
}

// NewServer wraps a board in the fabric's HTTP API.
func NewServer(b *Board) *Server {
	s := &Server{
		board:    b,
		mux:      http.NewServeMux(),
		rendered: newMemo(memoCap),
	}
	s.mux.HandleFunc("POST /v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /v1/complete", s.handleComplete)
	s.mux.HandleFunc("POST /v1/fail", s.handleFail)
	s.mux.HandleFunc("POST /v1/enqueue", s.handleEnqueue)
	s.mux.HandleFunc("POST /v1/wait", s.handleWait)
	s.mux.HandleFunc("GET /v1/keys", s.handleKeys)
	s.mux.HandleFunc("GET /v1/entry", s.handleEntry)
	s.mux.HandleFunc("GET /v1/figure", s.handleFigure)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Wire bodies for the POST endpoints.
type leaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

type completeRequest struct {
	Worker  string              `json:"worker"`
	LeaseID int64               `json:"lease_id"`
	Cell    experiment.CellJob  `json:"cell"`
	Metrics *metrics.RunMetrics `json:"metrics"`
	Cached  bool                `json:"cached"`
}

type failRequest struct {
	Worker  string             `json:"worker"`
	LeaseID int64              `json:"lease_id"`
	Cell    experiment.CellJob `json:"cell"`
	Error   string             `json:"error"`
}

type enqueueRequest struct {
	Jobs []experiment.CellJob `json:"jobs"`
}

type waitRequest struct {
	Keys      []string `json:"keys"`
	TimeoutMS int64    `json:"timeout_ms"`
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	grant, err := s.board.Lease(req.Worker, req.Max)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Metrics == nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("complete without metrics"))
		return
	}
	if err := s.board.Complete(req.Worker, req.LeaseID, req.Cell, req.Metrics, req.Cached); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := s.board.Fail(req.Worker, req.LeaseID, req.Cell, req.Error); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	var req enqueueRequest
	if !readJSON(w, r, &req) {
		return
	}
	sum, err := s.board.Enqueue(req.Jobs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	var req waitRequest
	if !readJSON(w, r, &req) {
		return
	}
	for _, key := range req.Keys {
		if !runcache.ValidKey(key) {
			// A malformed key can never resolve — waiting on it would
			// block until timeout for a request that is simply wrong.
			httpError(w, http.StatusBadRequest, fmt.Errorf("%q is not a content address", key))
			return
		}
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = DefaultQueryTimeout
	}
	st, err := s.board.WaitFor(r.Context().Done(), req.Keys, timeout)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"keys": s.board.Store().Keys()})
}

func (s *Server) handleEntry(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing key parameter"))
		return
	}
	if !runcache.ValidKey(key) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%q is not a content address", key))
		return
	}
	doc, ok := s.board.Store().GetRaw(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no entry for key %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc) //nolint:errcheck
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	q := s.qstats
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Board   BoardStats      `json:"board"`
		Cache   runcache.Health `json:"cache_health"`
		Entries int             `json:"cache_entries"`
		Queries QueryStats      `json:"queries"`
	}{s.board.Stats(), s.board.Store().Health(), s.board.Store().Len(), q})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"entries": s.board.Store().Len(),
	})
}

// queryKey canonicalises a figure query's parameters so the rendered
// memo is insensitive to parameter order.
func queryKey(q url.Values) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		if k == "timeout" {
			continue // how long to wait doesn't change what's computed
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		vs := append([]string(nil), q[k]...)
		sort.Strings(vs)
		for _, v := range vs {
			// Escape both sides so the separators are unambiguous: a
			// value containing '=' or '&' must not collide with a
			// different query that spells the same bytes structurally.
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(v))
			b.WriteByte('&')
		}
	}
	return b.String()
}

// sweepFromQuery builds the aggregation sweep a figure query describes.
// The paper grid is the default; protocols, speeds, reps, seedbase,
// nodes and duration (seconds) override it. A parameter outside
// figureParams is an error (a misspelt "speed" would otherwise serve, and
// memoise, the default grid), and so is a protocol no cell can run.
func (s *Server) sweepFromQuery(q url.Values) (experiment.Sweep, error) {
	base := s.Base
	if base.Nodes == 0 {
		base = scenario.DefaultConfig()
	}
	sweep := experiment.PaperSweep(base)
	for k := range q {
		if !figureParams[k] {
			return sweep, fmt.Errorf("unknown parameter %q", k)
		}
	}
	if v := q.Get("protocols"); v != "" {
		sweep.Protocols = strings.Split(v, ",")
		for _, p := range sweep.Protocols {
			if !slices.Contains(scenario.AllProtocols(), p) {
				return sweep, fmt.Errorf("unknown protocol %q (one of %s)", p, strings.Join(scenario.AllProtocols(), ", "))
			}
		}
	}
	if v := q.Get("speeds"); v != "" {
		var speeds []float64
		for _, part := range strings.Split(v, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || !finite(f) || f < 0 {
				return sweep, fmt.Errorf("bad speed %q (finite, non-negative m/s)", part)
			}
			speeds = append(speeds, f)
		}
		sweep.Speeds = speeds
	}
	if v := q.Get("reps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return sweep, fmt.Errorf("bad reps %q", v)
		}
		sweep.Reps = n
	}
	if v := q.Get("seedbase"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return sweep, fmt.Errorf("bad seedbase %q", v)
		}
		sweep.SeedBase = n
	}
	if v := q.Get("nodes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			return sweep, fmt.Errorf("bad nodes %q", v)
		}
		sweep.Base.Nodes = n
	}
	if v := q.Get("duration"); v != "" {
		sec, err := strconv.ParseFloat(v, 64)
		if err != nil || !finite(sec) || sec <= 0 {
			return sweep, fmt.Errorf("bad duration %q (seconds)", v)
		}
		sweep.Base.Duration = sim.Seconds(sec)
	}
	if v := q.Get("tcpstart"); v != "" {
		sec, err := strconv.ParseFloat(v, 64)
		if err != nil || !finite(sec) || sec < 0 {
			return sweep, fmt.Errorf("bad tcpstart %q (seconds)", v)
		}
		sweep.Base.TCPStart = sim.Time(sim.Seconds(sec))
	}
	return sweep, nil
}

// figureParams are the parameters a figure query may carry.
var figureParams = map[string]bool{
	"fig": true, "format": true, "timeout": true, "protocols": true, "speeds": true,
	"reps": true, "seedbase": true, "nodes": true, "duration": true, "tcpstart": true,
}

// finite reports whether f is neither NaN nor infinite: strconv.ParseFloat
// accepts "NaN" and "Inf", and NaN slips past every ordered comparison.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// handleFigure answers a figure/table/CSV query. Cold cells are pushed
// through the board for the worker fleet; the final aggregation is the
// ordinary Sweep.Run over the shared store, so the rendered bytes are
// identical to a single-process sweep's. Headers:
//
//	X-Sweepd-Query:     warm | rendered
//	X-Sweepd-Cached:    cells served from the store without simulation
//	X-Sweepd-Simulated: cells the fleet (or, as fallback, the
//	                    aggregation pass itself) had to simulate
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	figID := q.Get("fig")
	fig, ok := experiment.FigureByID(figID)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown figure %q (try fig5..fig11 or the adversary/countermeasure figure IDs)", figID))
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "table"
	}
	if format != "table" && format != "csv" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (table or csv)", format))
		return
	}
	// Validate before the memo lookup, so a bad query is never served.
	sweep, err := s.sweepFromQuery(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	qk := queryKey(q)
	s.mu.Lock()
	if rq, ok := s.rendered.get(qk); ok {
		s.qstats.Queries++
		s.qstats.WarmHits++
		s.mu.Unlock()
		w.Header().Set("X-Sweepd-Query", "warm")
		w.Header().Set("X-Sweepd-Cached", "all")
		w.Header().Set("X-Sweepd-Simulated", "0")
		w.Header().Set("Content-Type", contentType(rq.format))
		w.Write([]byte(rq.body)) //nolint:errcheck
		return
	}
	s.mu.Unlock()

	timeout := s.QueryTimeout
	if timeout <= 0 {
		timeout = DefaultQueryTimeout
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q: %w", v, err))
			return
		}
		timeout = d
	}

	jobs := sweep.Jobs()
	sum, err := s.board.Enqueue(jobs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	cold := sum.Queued + sum.AlreadyPending
	if cold > 0 {
		st, err := s.board.WaitFor(r.Context().Done(), sum.Keys, timeout)
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		if len(st.Failed) > 0 {
			writeJSON(w, http.StatusBadGateway, map[string]any{
				"error":  fmt.Sprintf("%d cells failed permanently", len(st.Failed)),
				"failed": st.Failed,
			})
			return
		}
		if st.Remaining > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":   fmt.Sprintf("%d cells still cold after %s — are workers connected?", st.Remaining, timeout),
				"pending": st.Remaining,
			})
			return
		}
	}

	// Aggregate through the engine itself: with every cell in the store
	// this is pure cache replay, byte-identical to a local sweep. A
	// miss (e.g. an entry quarantined between wait and read) degrades
	// to inline simulation rather than an error.
	sweep.Cache = s.board.Store()
	res, err := sweep.Run()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var body string
	if format == "csv" {
		body = res.CSV(fig)
	} else {
		body = res.Table(fig)
	}

	s.mu.Lock()
	s.rendered.put(qk, renderedQuery{body: body, format: format})
	s.qstats.Queries++
	s.qstats.ColdCells += cold
	s.qstats.InlineRuns += res.CacheMisses
	if cold == 0 && res.CacheMisses == 0 {
		s.qstats.StoreOnly++
	}
	s.mu.Unlock()

	w.Header().Set("X-Sweepd-Query", "rendered")
	w.Header().Set("X-Sweepd-Cached", strconv.Itoa(res.CacheHits))
	w.Header().Set("X-Sweepd-Simulated", strconv.Itoa(cold+res.CacheMisses))
	w.Header().Set("Content-Type", contentType(format))
	w.Write([]byte(body)) //nolint:errcheck
}

func contentType(format string) string {
	if format == "csv" {
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}
