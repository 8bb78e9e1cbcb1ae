// Package serve is the simulation daemon behind cmd/pmemspec-serve: an
// HTTP/JSON layer that accepts experiment grids (POST /v1/jobs), fans
// their cells out onto the harness worker pool, and serves every
// completed cell from a content-addressed result cache. Determinism is
// what makes the cache sound — a cell's bytes depend only on its inputs
// and the code version — so resubmitting a grid costs zero simulation.
//
// This package deliberately sits outside the simdeterminism lint gate:
// it owns the wall-clock concerns (timeouts, backpressure, drain) so
// the simulator underneath stays clock-free.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/metrics"
)

// Config sizes a Server.
type Config struct {
	// Workers is the simulation pool width (≤ 0: GOMAXPROCS).
	Workers int
	// QueueCells bounds the total admitted-but-unfinished cells across
	// all jobs; admissions past it get 429 (≤ 0: 1024).
	QueueCells int
	// CacheBytes bounds the in-memory result cache (≤ 0: 64 MiB).
	CacheBytes int64
	// CacheDir, when non-empty, spills results to disk and serves
	// misses from there across restarts.
	CacheDir string
	// DefaultTimeout bounds a job's wall-clock when the spec does not
	// (≤ 0: 5 minutes).
	DefaultTimeout time.Duration
}

// cellState is one cell's position in its job's lifecycle.
type cellState string

const (
	cellQueued    cellState = "queued"
	cellRunning   cellState = "running"
	cellDone      cellState = "done"
	cellCached    cellState = "cached" // done, served from cache without simulating
	cellFailed    cellState = "failed"
	cellCancelled cellState = "cancelled"
)

// cellStatus is the per-cell progress row in job status and the NDJSON
// stream.
type cellStatus struct {
	Index int       `json:"index"`
	Key   string    `json:"key"`
	Cell  Cell      `json:"cell"`
	State cellState `json:"state"`
	Error string    `json:"error,omitempty"`
}

// jobStatus is the GET /v1/jobs/{id} body.
type jobStatus struct {
	ID        string       `json:"id"`
	State     string       `json:"state"` // running | done | failed | cancelled
	Cells     int          `json:"cells"`
	Completed int          `json:"completed"`
	CacheHits int          `json:"cache_hits"`
	Simulated int          `json:"simulated"`
	Failed    int          `json:"failed"`
	Error     string       `json:"error,omitempty"`
	Results   []cellStatus `json:"results"`
}

// job is one admitted grid in flight.
type job struct {
	id     string
	cells  []Cell
	cancel context.CancelFunc

	mu        sync.Mutex
	states    []cellStatus
	completed int
	cacheHits int
	simulated int
	failed    int
	err       string
	done      bool
	cancelled bool
	// subs receive a snapshot row per state change plus a final nil;
	// capacity covers every possible event so sends never block.
	subs []chan *cellStatus
}

// Server is the daemon: an http.Handler plus the worker pool, cache and
// admission bookkeeping behind it.
type Server struct {
	cfg     Config
	version string // code stamp every cell key and result carries
	pool    *harness.Pool[CellResult]
	cache   *resultCache
	mux     *http.ServeMux

	mu         sync.Mutex
	jobs       map[string]*job
	jobOrder   []string // admission order, for retention trimming
	nextID     int
	queued     int // admitted-but-unfinished cells across all jobs
	queuedPeak int
	draining   bool
	dispatch   sync.WaitGroup

	// Plain counters, not a metrics.Registry: the registry is not
	// concurrency-safe, so /v1/metrics builds one on demand under mu.
	reqs         uint64
	jobsAccepted uint64
	jobsRejected uint64
	cellsTotal   uint64
}

// retainJobs caps finished-job history so a long-lived daemon's status
// map cannot grow without bound.
const retainJobs = 64

// NewServer builds a daemon. Callers own shutdown: run Shutdown before
// discarding it, or the pool goroutines leak.
func NewServer(cfg Config) (*Server, error) {
	if cfg.QueueCells <= 0 {
		cfg.QueueCells = 1024
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	version, err := codeVersion()
	if err != nil {
		return nil, err
	}
	cache, err := newResultCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		version: version,
		pool:    harness.NewPool[CellResult](cfg.Workers),
		cache:   cache,
		jobs:    make(map[string]*job),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobGet)
	s.mux.HandleFunc("/v1/results/", s.handleResult)
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/version", s.handleVersion)
	return s, nil
}

// Version returns the code stamp the daemon keys its cache on.
func (s *Server) Version() string { return s.version }

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.reqs++
		s.mu.Unlock()
		s.mux.ServeHTTP(w, r)
	})
}

// Shutdown drains the daemon: new jobs are refused (503), in-flight
// jobs run until ctx expires, then their contexts are cancelled (which
// stops in-flight kernels via the cancellation watcher) and the drain
// completes. The worker pool is torn down before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.dispatch.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-drained
	}
	s.pool.Close()
	return err
}

// submitResponse is the POST /v1/jobs reply.
type submitResponse struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var spec GridSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	cells, err := spec.Cells()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.jobsRejected++
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.queued+len(cells) > s.cfg.QueueCells {
		s.jobsRejected++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"queue full: %d cells requested, queue bound %d", len(cells), s.cfg.QueueCells)
		return
	}
	s.nextID++
	// IDs are sequence numbers, not timestamps or randomness: the
	// daemon's observable behavior stays reproducible under test.
	id := fmt.Sprintf("j%06d", s.nextID)
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	j := &job{id: id, cells: cells, cancel: cancel, states: make([]cellStatus, len(cells))}
	for i, c := range cells {
		j.states[i] = cellStatus{Index: i, Key: c.Key(s.version), Cell: c, State: cellQueued}
	}
	s.jobs[id] = j
	s.jobOrder = append(s.jobOrder, id)
	s.queued += len(cells)
	if s.queued > s.queuedPeak {
		s.queuedPeak = s.queued
	}
	s.jobsAccepted++
	s.cellsTotal += uint64(len(cells))
	s.dispatch.Add(1)
	s.mu.Unlock()

	go s.runJob(ctx, j)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(submitResponse{ID: id, Cells: len(cells)})
}

// runJob drives one job: cache probe per cell, pool submission for the
// misses, completion bookkeeping. It owns the job's context.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.dispatch.Done()
	defer j.cancel()

	var wg sync.WaitGroup
	for i := range j.cells {
		if ctx.Err() != nil {
			s.finishCell(j, i, cellCancelled, "job cancelled: "+ctx.Err().Error())
			continue
		}
		cell := j.cells[i]
		key := j.states[i].Key
		if data := s.cache.Get(key); data != nil {
			_ = data // stored bytes are served by /v1/results, not copied per job
			s.finishCell(j, i, cellCached, "")
			continue
		}
		idx := i
		s.setCellState(j, idx, cellRunning)
		wg.Add(1)
		// Submit blocks while all workers are busy — that is the
		// backpressure the admission bound sizes against.
		s.pool.Submit(harness.Job[CellResult]{
			Label: fmt.Sprintf("%s[%d] %s/%s", j.id, idx, cell.Design, cell.Workload),
			Run: func() (CellResult, error) {
				return runCell(cell, s.version, func() bool { return ctx.Err() != nil })
			},
		}, func(r harness.JobResult[CellResult]) {
			defer wg.Done()
			switch {
			case r.Err == nil:
				data, err := json.Marshal(r.Result)
				if err != nil {
					s.finishCell(j, idx, cellFailed, "encode: "+err.Error())
					return
				}
				s.cache.Put(key, data)
				s.finishCell(j, idx, cellDone, "")
			case errors.Is(r.Err, machine.ErrCanceled):
				s.finishCell(j, idx, cellCancelled, "job cancelled")
			default:
				s.finishCell(j, idx, cellFailed, r.Err.Error())
			}
		})
	}
	wg.Wait()
	s.completeJob(j)
}

// setCellState flips a cell's state and notifies stream subscribers.
func (s *Server) setCellState(j *job, i int, st cellState) {
	j.mu.Lock()
	j.states[i].State = st
	row := j.states[i]
	subs := append([]chan *cellStatus(nil), j.subs...)
	j.mu.Unlock()
	for _, sub := range subs {
		sub <- &row
	}
}

// finishCell records a cell's terminal state and returns its queue slot.
func (s *Server) finishCell(j *job, i int, st cellState, errMsg string) {
	j.mu.Lock()
	j.states[i].State = st
	j.states[i].Error = errMsg
	j.completed++
	switch st {
	case cellCached:
		j.cacheHits++
	case cellDone:
		j.simulated++
	case cellFailed:
		j.failed++
		if j.err == "" {
			j.err = fmt.Sprintf("cell %d: %s", i, errMsg)
		}
	case cellCancelled:
		j.cancelled = true
	}
	row := j.states[i]
	subs := append([]chan *cellStatus(nil), j.subs...)
	j.mu.Unlock()

	s.mu.Lock()
	s.queued--
	s.mu.Unlock()

	for _, sub := range subs {
		sub <- &row
	}
}

// completeJob marks the job terminal, closes its streams, and trims the
// retention window.
func (s *Server) completeJob(j *job) {
	j.mu.Lock()
	j.done = true
	subs := j.subs
	j.subs = nil
	j.mu.Unlock()
	for _, sub := range subs {
		sub <- nil // stream sentinel: job over
	}

	s.mu.Lock()
	for len(s.jobOrder) > retainJobs {
		old := s.jobs[s.jobOrder[0]]
		if old == nil || !old.snapshot().terminal() {
			break // never drop a live job
		}
		delete(s.jobs, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
	}
	s.mu.Unlock()
}

// snapshot copies the job's status under its lock.
func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID:        j.id,
		Cells:     len(j.cells),
		Completed: j.completed,
		CacheHits: j.cacheHits,
		Simulated: j.simulated,
		Failed:    j.failed,
		Error:     j.err,
		Results:   append([]cellStatus(nil), j.states...),
	}
	switch {
	case !j.done:
		st.State = "running"
	case j.failed > 0:
		st.State = "failed"
	case j.cancelled:
		st.State = "cancelled"
	default:
		st.State = "done"
	}
	return st
}

func (st jobStatus) terminal() bool { return st.State != "running" }

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if r.URL.Query().Get("stream") != "" {
		s.streamJob(w, j)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.snapshot())
}

// streamJob replays the job's current per-cell states and then follows
// live updates as NDJSON until the job completes.
func (s *Server) streamJob(w http.ResponseWriter, j *job) {
	// Capacity covers the worst case — every cell changing state twice
	// (running + terminal) plus the sentinel — so producers never block
	// on a slow reader.
	sub := make(chan *cellStatus, 3*len(j.cells)+4)
	j.mu.Lock()
	replay := append([]cellStatus(nil), j.states...)
	done := j.done
	if !done {
		j.subs = append(j.subs, sub)
	}
	j.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	for i := range replay {
		enc.Encode(replay[i])
	}
	flush()
	if done {
		return
	}
	for row := range sub {
		if row == nil {
			return
		}
		enc.Encode(*row)
		flush()
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/results/")
	data := s.cache.Get(key)
	if data == nil {
		httpError(w, http.StatusNotFound, "no result %q", key)
		return
	}
	if r.URL.Query().Get("format") == "trace" {
		var res CellResult
		if err := json.Unmarshal(data, &res); err != nil || len(res.Trace) == 0 {
			httpError(w, http.StatusNotFound, "result %q has no trace (set config.timeline)", key)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(res.Trace)
		return
	}
	// Stored bytes verbatim: byte-determinism is part of the contract.
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleMetrics serves the daemon's own counters as a metrics.Snapshot.
// The registry is rebuilt per request because Registry is not
// concurrency-safe; the plain counters under s.mu are the live state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	s.mu.Lock()
	reg := metrics.NewRegistry()
	reg.Counter("serve", "http_requests").Add(s.reqs)
	reg.Counter("serve", "jobs_accepted").Add(s.jobsAccepted)
	reg.Counter("serve", "jobs_rejected").Add(s.jobsRejected)
	reg.Counter("serve", "cells_total").Add(s.cellsTotal)
	reg.Gauge("serve", "queue_depth").Observe(int64(s.queued))
	reg.Gauge("serve", "queue_peak").Observe(int64(s.queuedPeak))
	s.mu.Unlock()
	reg.Counter("serve_cache", "hits").Add(cs.Hits)
	reg.Counter("serve_cache", "misses").Add(cs.Misses)
	reg.Counter("serve_cache", "evictions").Add(cs.Evictions)
	reg.Counter("serve_cache", "entries").Add(uint64(cs.Entries))
	reg.Counter("serve_cache", "bytes").Add(uint64(cs.Bytes))
	w.Header().Set("Content-Type", "application/json")
	reg.Snapshot().WriteJSON(w)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"version": s.version})
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
