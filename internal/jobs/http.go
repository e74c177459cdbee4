package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/obs"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
)

// MaxBodyBytes bounds a POST /v1/jobs body; larger submissions are
// rejected with 413.
const MaxBodyBytes = 8 << 20

// NewHandler exposes a Pool over HTTP, speaking the job.json bundle schema
// from internal/schemas. It is the /v1 protocol's one handler: the fleet
// dispatcher serves the same routes through NewServiceHandler (see
// fleet.NewHandler for what differs behind them):
//
//	POST   /v1/jobs             submit a job.json bundle → 202 {id,state,cache_hit}
//	GET    /v1/jobs             job history listing (?state=done&limit=100)
//	GET    /v1/jobs/{id}        lifecycle status + timing (?wait=5s long-polls)
//	GET    /v1/jobs/{id}/result decoded result (202 while pending)
//	DELETE /v1/jobs/{id}        cancel a queued (or coalesced) job
//	POST   /v1/sweeps           submit a sweep bundle → 202 {id,state,points}
//	GET    /v1/sweeps/{id}      indexed per-point result set (?wait=5s long-polls)
//	GET    /v1/engines          registered engine names
//	GET    /v1/stats            pool counters incl. cache_hits, coalesced, wide_jobs
//	GET    /metrics             Prometheus exposition of the tier's instruments
//
// A sweep bundle is an ordinary job.json whose context carries a sweep
// block ({"params": [...], "points": [[...], ...]}) and whose operator
// parameters reference the swept names as "$name" markers. The whole grid
// is ONE job: one queue slot, one journal record, per-point fan-out when
// it runs (see SubmitSweep). GET /v1/sweeps/{id} answers 202 with the
// lifecycle status (including points_done progress) until the sweep is
// terminal, then the indexed result set.
//
// ?wait=<duration> on GET /v1/jobs/{id} and GET /v1/sweeps/{id} long-polls:
// the response is held until the job turns terminal or the duration
// (capped at 60s) elapses, whichever is first, then carries the status at
// that moment. Pollers get an answer in one round-trip instead of a
// retry loop.
//
// POST /v1/jobs?shards=N pins the statevector parallelism grant for that
// job (0 or absent: the scheduler gives a lone simulation the pool's
// max_shards and concurrent jobs one shard; the grant appears in the
// status document as "shards"). Backpressure surfaces as 429 with
// Retry-After when the pool's bounded queue is full. Every submission
// answers with its (possibly server-generated) X-Trace-Id header; the
// full error→status table is statusOf.
//
// When the pool is persistent (qmlserve -data-dir), the history listing,
// per-job statuses and results all survive restarts, and /v1/stats gains
// the journal counters (recovered, requeued, disk_hits, journal_events,
// journal_compactions, disk_results).
func NewHandler(p *Pool) http.Handler {
	return NewServiceHandler(poolService{p}, qop.ValidateOptions{AllowMidCircuit: p.opts.Run.AllowMidCircuit}, p.log)
}

// Service is one tier of the /v1 protocol behind NewServiceHandler: a
// worker's Pool or the fleet dispatcher. The handler owns what the tiers
// share — routes, request parsing, the error→status table, the
// X-Trace-Id echo and the documents' encoding — so a Service supplies
// only what differs. Its errors pick their status code through the
// package's sentinel errors (see statusOf).
type Service interface {
	// Accept registers one plain job or, with sweep set, one parameter
	// sweep, and returns its status from the same critical section.
	Accept(b *bundle.Bundle, o SubmitOptions, sweep bool) (Status, error)
	// WaitTimeout returns a job's status once it is terminal or d has
	// elapsed, whichever is first (d <= 0: at once).
	WaitTimeout(id string, d time.Duration) (Status, error)
	// List returns job statuses newest first; a non-empty state filters
	// and limit caps.
	List(state State, limit int) []Status
	// Result returns a done job's result document and the status code
	// to serve it with.
	Result(ctx context.Context, id string) (code int, body []byte, err error)
	// SweepPoints returns a done sweep's per-point results in grid order.
	SweepPoints(ctx context.Context, id string) ([]SweepPoint, error)
	// Cancel cancels a job and returns its status afterwards.
	Cancel(ctx context.Context, id string) (Status, error)
	// Engines lists the engine names the tier can run.
	Engines(ctx context.Context) ([]string, error)
	// StatsDoc is the GET /v1/stats document.
	StatsDoc() any
	// Metrics is the registry GET /metrics serves next to obs.Default().
	Metrics() *obs.Registry
}

// NewServiceHandler serves s on the /v1 routes listed at NewHandler,
// parsing bundles under vo and logging recovered panics to log.
func NewServiceHandler(s Service, vo qop.ValidateOptions, log *slog.Logger) http.Handler {
	h := handler{s: s, vo: vo}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) { h.submit(w, r, false) })
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", h.result)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) { h.submit(w, r, true) })
	mux.HandleFunc("GET /v1/sweeps/{id}", h.sweep)
	mux.HandleFunc("GET /v1/engines", h.engines)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.StatsDoc())
	})
	// The tier's own instruments plus the process-wide registry (sim_*
	// stage histograms, and go_*/build_info when the server registered
	// them there) in one exposition.
	mux.Handle("GET /metrics", obs.Handler(s.Metrics(), obs.Default()))
	return obs.Recover(mux, log, s.Metrics().Counter("http_panics_total", "Handler panics recovered by the middleware."))
}

// statusOf is the /v1 protocol's one error→status table. An error no
// sentinel claims is an execution failure. Malformed requests answer 400
// (and oversized bodies 413) before they reach a Service.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		return http.StatusAccepted // still queued or running: poll again
	case errors.Is(err, ErrCanceled):
		return http.StatusGone
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnreachable):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// ErrorJSON is the error document every /v1 endpoint serves.
type ErrorJSON struct {
	Error string `json:"error"`
}

// writeError answers with the error document; a 429 also says when to
// retry.
func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, code, ErrorJSON{err.Error()})
}

type submitJSON struct {
	ID       string `json:"id"`
	TraceID  string `json:"trace_id,omitempty"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
}

type statusJSON struct {
	ID          string          `json:"id"`
	TraceID     string          `json:"trace_id,omitempty"`
	State       State           `json:"state"`
	Engine      string          `json:"engine,omitempty"`
	Worker      string          `json:"worker,omitempty"`
	Remote      string          `json:"remote,omitempty"`
	CacheHit    bool            `json:"cache_hit"`
	Coalesced   bool            `json:"coalesced,omitempty"`
	Shards      int             `json:"shards,omitempty"`
	Reforwards  int             `json:"reforwards,omitempty"`
	Sweep       bool            `json:"sweep,omitempty"`
	Points      int             `json:"points,omitempty"`
	PointsDone  int             `json:"points_done,omitempty"`
	Progress    float64         `json:"progress,omitempty"`
	EtaMS       float64         `json:"eta_ms,omitempty"`
	Ranges      []RangeInfo     `json:"ranges,omitempty"`
	Error       string          `json:"error,omitempty"`
	SubmittedAt string          `json:"submitted_at"`
	StartedAt   string          `json:"started_at,omitempty"`
	FinishedAt  string          `json:"finished_at,omitempty"`
	QueueMS     float64         `json:"queue_ms"`
	RunMS       float64         `json:"run_ms"`
	Spans       []obs.Span      `json:"spans,omitempty"`
	Profile     json.RawMessage `json:"profile,omitempty"`
}

type entryJSON struct {
	Bitstring string   `json:"bitstring"`
	Index     uint64   `json:"index"`
	Value     any      `json:"value,omitempty"`
	Count     int      `json:"count"`
	Energy    *float64 `json:"energy,omitempty"`
}

type resultJSON struct {
	ID      string         `json:"id"`
	Engine  string         `json:"engine"`
	Samples int            `json:"samples"`
	Entries []entryJSON    `json:"entries"`
	Meta    map[string]any `json:"meta,omitempty"`
}

// profileFlag side-parses the optional top-level "profile" flag from a
// raw submission body. The flag is not part of the bundle schema —
// FromJSON ignores unknown top-level fields and schema validation
// re-marshals from the struct — so it rides verbatim through any proxy
// that forwards the raw body, and reaches the executing worker without
// protocol changes. Proxies that re-derive the body from the parsed
// bundle (the fleet dispatcher re-marshals, which drops unknown fields)
// forward the flag as ?profile=true instead, exactly like shard pins.
func profileFlag(raw []byte) bool {
	var flags struct {
		Profile bool `json:"profile"`
	}
	_ = json.Unmarshal(raw, &flags) // malformed bodies already failed FromJSON
	return flags.Profile
}

// handler serves one Service on the /v1 routes.
type handler struct {
	s  Service
	vo qop.ValidateOptions
}

// parseSubmit parses a POST /v1/jobs or POST /v1/sweeps request: the
// size-capped body, the bundle, the ?shards= pin, the profile flag (body
// or ?profile=true) and the X-Trace-Id header. ok=false means it already
// answered 413 or 400.
func (h handler) parseSubmit(w http.ResponseWriter, r *http.Request) (*bundle.Bundle, SubmitOptions, bool) {
	var so SubmitOptions
	raw, ok := readBody(w, r)
	if !ok {
		return nil, so, false
	}
	b, err := bundle.FromJSON(raw, h.vo)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, so, false
	}
	if rawShards := r.URL.Query().Get("shards"); rawShards != "" {
		so.Shards, err = strconv.Atoi(rawShards)
		if err != nil || so.Shards < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: invalid shards %q", rawShards))
			return nil, so, false
		}
	}
	so.Profile = profileFlag(raw) || r.URL.Query().Get("profile") == "true"
	so.TraceID = r.Header.Get(obs.TraceHeader)
	return b, so, true
}

// submit serves POST /v1/jobs and, with sweep set, POST /v1/sweeps.
func (h handler) submit(w http.ResponseWriter, r *http.Request, sweep bool) {
	b, so, ok := h.parseSubmit(w, r)
	if !ok {
		return
	}
	st, err := h.s.Accept(b, so, sweep)
	if err != nil {
		code := statusOf(err)
		if sweep && code == http.StatusInternalServerError {
			// Every other sweep error is a malformed submission (missing
			// sweep block, empty or oversized grid, unkeyable bundle).
			code = http.StatusBadRequest
		}
		writeError(w, code, err)
		return
	}
	// Echo the accepted (possibly server-generated) trace ID so callers
	// can correlate without parsing the body.
	w.Header().Set(obs.TraceHeader, st.Trace)
	if sweep {
		WriteJSON(w, http.StatusAccepted, sweepSubmitJSON{ID: st.ID, TraceID: st.Trace, State: st.State, Points: st.Points})
		return
	}
	WriteJSON(w, http.StatusAccepted, submitJSON{ID: st.ID, TraceID: st.Trace, State: st.State, CacheHit: st.CacheHit})
}

// listDefaultLimit caps GET /v1/jobs responses unless ?limit= overrides.
const listDefaultLimit = 100

// listParams parses GET /v1/jobs's ?state= filter and ?limit= cap
// (default listDefaultLimit). ok=false means it already answered 400.
func listParams(w http.ResponseWriter, r *http.Request) (State, int, bool) {
	state := State(r.URL.Query().Get("state"))
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: unknown state %q", state))
		return "", 0, false
	}
	limit := listDefaultLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: invalid limit %q", raw))
			return "", 0, false
		}
		limit = n
	}
	return state, limit, true
}

func (h handler) list(w http.ResponseWriter, r *http.Request) {
	state, limit, ok := listParams(w, r)
	if !ok {
		return
	}
	sts := h.s.List(state, limit)
	out := struct {
		Jobs  []statusJSON `json:"jobs"`
		Count int          `json:"count"`
	}{Jobs: make([]statusJSON, len(sts)), Count: len(sts)}
	for i, st := range sts {
		out.Jobs[i] = statusToJSON(st)
	}
	WriteJSON(w, http.StatusOK, out)
}

// MaxLongPoll caps the ?wait= long-poll duration so a handler goroutine
// never hangs past proxy/server timeouts; clients re-issue the poll to
// keep waiting.
const MaxLongPoll = 60 * time.Second

// waitStatus parses the ?wait= long-poll duration (capped at MaxLongPoll)
// and returns the {id} job's status once it is terminal or the wait is
// over. ok=false means it already answered 400 (invalid ?wait=) or 404.
func (h handler) waitStatus(w http.ResponseWriter, r *http.Request) (Status, bool) {
	var wait time.Duration
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: invalid wait %q", raw))
			return Status{}, false
		}
		wait = min(d, MaxLongPoll)
	}
	st, err := h.s.WaitTimeout(r.PathValue("id"), wait)
	if err != nil {
		writeError(w, statusOf(err), err)
		return Status{}, false
	}
	return st, true
}

func (h handler) status(w http.ResponseWriter, r *http.Request) {
	if st, ok := h.waitStatus(w, r); ok {
		WriteJSON(w, http.StatusOK, statusToJSON(st))
	}
}

func (h handler) result(w http.ResponseWriter, r *http.Request) {
	code, body, err := h.s.Result(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func (h handler) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := h.s.Cancel(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, statusToJSON(st))
}

func (h handler) engines(w http.ResponseWriter, r *http.Request) {
	engines, err := h.s.Engines(r.Context())
	if err != nil {
		// Only a fleet can fail here: no worker answered.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"engines": engines})
}

type sweepSubmitJSON struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id,omitempty"`
	State   State  `json:"state"`
	Points  int    `json:"points"`
}

// SweepPoint is one indexed per-point result in a sweep result set; Index
// is the point's position in the whole grid.
type SweepPoint struct {
	Index   int            `json:"index"`
	Engine  string         `json:"engine"`
	Samples int            `json:"samples"`
	Entries []entryJSON    `json:"entries"`
	Meta    map[string]any `json:"meta,omitempty"`
}

type sweepResultJSON struct {
	ID         string          `json:"id"`
	TraceID    string          `json:"trace_id,omitempty"`
	State      State           `json:"state"`
	Engine     string          `json:"engine,omitempty"`
	Points     int             `json:"points"`
	PointsDone int             `json:"points_done"`
	Progress   float64         `json:"progress"`
	Profile    json.RawMessage `json:"profile,omitempty"`
	Results    []SweepPoint    `json:"results"`
}

func (h handler) sweep(w http.ResponseWriter, r *http.Request) {
	st, ok := h.waitStatus(w, r)
	if !ok {
		return
	}
	if !st.Sweep {
		writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: %q is not a sweep", st.ID))
		return
	}
	if !st.State.Terminal() {
		// Still queued or running: report progress, poll (or ?wait=) again.
		WriteJSON(w, http.StatusAccepted, statusToJSON(st))
		return
	}
	points, err := h.s.SweepPoints(r.Context(), st.ID)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	// Re-snapshot: a recovered sweep's aggregated profile materializes on
	// the SweepPoints call above (results lazy-load from disk).
	if st2, err := h.s.WaitTimeout(st.ID, 0); err == nil {
		st = st2
	}
	WriteJSON(w, http.StatusOK, sweepResultJSON{
		ID:         st.ID,
		TraceID:    st.Trace,
		State:      st.State,
		Engine:     st.Engine,
		Points:     st.Points,
		PointsDone: st.PointsDone,
		Progress:   st.Progress,
		Profile:    st.Profile,
		Results:    points,
	})
}

func statusToJSON(st Status) statusJSON {
	out := statusJSON{
		ID:          st.ID,
		TraceID:     st.Trace,
		State:       st.State,
		Engine:      st.Engine,
		Worker:      st.Worker,
		Remote:      st.Remote,
		CacheHit:    st.CacheHit,
		Coalesced:   st.Coalesced,
		Shards:      st.Shards,
		Reforwards:  st.Reforwards,
		Sweep:       st.Sweep,
		Points:      st.Points,
		PointsDone:  st.PointsDone,
		Progress:    st.Progress,
		EtaMS:       float64(st.ETA) / float64(time.Millisecond),
		Ranges:      st.Ranges,
		Error:       st.Error,
		SubmittedAt: st.SubmittedAt.UTC().Format(time.RFC3339Nano),
		QueueMS:     float64(st.QueueWait) / float64(time.Millisecond),
		RunMS:       float64(st.RunTime) / float64(time.Millisecond),
		Spans:       st.Spans,
		Profile:     st.Profile,
	}
	if !st.StartedAt.IsZero() {
		out.StartedAt = st.StartedAt.UTC().Format(time.RFC3339Nano)
	}
	if !st.FinishedAt.IsZero() {
		out.FinishedAt = st.FinishedAt.UTC().Format(time.RFC3339Nano)
	}
	return out
}

func resultToJSON(id string, res *result.Result) resultJSON {
	out := resultJSON{
		ID:      id,
		Engine:  res.Engine,
		Samples: res.Samples,
		Entries: make([]entryJSON, 0, len(res.Entries)),
		Meta:    res.Meta,
	}
	for _, e := range res.Entries {
		ej := entryJSON{Bitstring: e.Bitstring, Index: e.Index, Value: valueToJSON(e.Value), Count: e.Count}
		if e.HasEnergy {
			energy := e.Energy
			ej.Energy = &energy
		}
		out.Entries = append(out.Entries, ej)
	}
	return out
}

// valueToJSON renders a decoded qdt.Value in its natural JSON shape per
// the register's measurement semantics.
func valueToJSON(v qdt.Value) any {
	switch v.Semantics {
	case qdt.AsInt:
		return v.Int
	case qdt.AsPhase, qdt.AsFixed:
		return v.Float
	case qdt.AsBool:
		return v.Bools
	case qdt.AsSpin:
		return v.Spins
	default:
		return nil
	}
}

// readBody reads a request body of at most MaxBodyBytes. ok=false means
// it already answered 413 (too large) or 400 (unreadable).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	defer r.Body.Close()
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("jobs: body exceeds %d bytes", MaxBodyBytes))
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil, false
	}
	return raw, true
}

// WriteJSON writes one /v1 response document (indented, with the JSON
// content type).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	encodeJSON(w, v)
}

func encodeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// poolService adapts a Pool to Service. Its Result and Cancel stand in
// for the Pool's own, whose signatures predate the interface.
type poolService struct{ *Pool }

func (s poolService) Accept(b *bundle.Bundle, o SubmitOptions, sweep bool) (Status, error) {
	return s.accept(b, o, sweep)
}

func (s poolService) Result(_ context.Context, id string) (int, []byte, error) {
	res, err := s.Pool.Result(id)
	if err != nil {
		return 0, nil, err
	}
	var body bytes.Buffer
	encodeJSON(&body, resultToJSON(id, res))
	return http.StatusOK, body.Bytes(), nil
}

func (s poolService) SweepPoints(_ context.Context, id string) ([]SweepPoint, error) {
	results, err := s.SweepResult(id)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(results))
	for i, res := range results {
		rj := resultToJSON(id, res)
		out[i] = SweepPoint{Index: i, Engine: rj.Engine, Samples: rj.Samples, Entries: rj.Entries, Meta: rj.Meta}
	}
	return out, nil
}

func (s poolService) Cancel(_ context.Context, id string) (Status, error) {
	if err := s.Pool.Cancel(id); err != nil {
		return Status{}, err
	}
	st, err := s.Status(id)
	if err != nil {
		// The record was evicted (MaxRecords) between Cancel and the
		// lookup; the cancellation itself succeeded.
		st = Status{ID: id, State: StateCanceled}
	}
	return st, nil
}

func (poolService) Engines(context.Context) ([]string, error) { return backend.Engines(), nil }

func (s poolService) StatsDoc() any { return s.Stats() }
