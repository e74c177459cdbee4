package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/obs"
)

// Options configure a Dispatcher. Workers is required; everything else
// has serving defaults.
type Options struct {
	// Workers are the fleet nodes' base URLs (host:port or http://…).
	Workers []string
	// Store, when non-nil, journals every accepted job (submission,
	// assignment, lifecycle) so forwarding survives both worker deaths
	// and dispatcher crashes. The dispatcher does not close the store.
	Store *store.Store
	// RequestTimeout bounds every dispatcher→worker HTTP call — both as
	// a context deadline and as the shared http.Client's hard timeout —
	// so a hung worker cannot wedge a dispatcher goroutine (default 10s).
	RequestTimeout time.Duration
	// ProbeInterval is the health/stats probe cadence (default 1s).
	ProbeInterval time.Duration
	// PollInterval is the per-job remote status poll cadence (default
	// 100ms).
	PollInterval time.Duration
	// EjectAfter is the consecutive probe failures that mark a worker
	// unhealthy; one success readmits it (default 3).
	EjectAfter int
	// ReforwardAfter is the consecutive per-job poll failures after
	// which the job abandons its worker and re-forwards (default 3).
	ReforwardAfter int
	// AffinitySlack is how many more outstanding dispatched jobs the
	// cache-affinity worker may carry than the least-loaded node before
	// the router spills the job to the latter (default 4).
	AffinitySlack int
	// Vnodes is the virtual-node count per worker on the consistent-hash
	// ring (default 64).
	Vnodes int
	// MaxRecords bounds retained terminal job records, like
	// jobs.Options.MaxRecords (default 65536; negative retains all).
	MaxRecords int
	// AllowMidCircuit forwards to bundle validation.
	AllowMidCircuit bool
	// Logger receives structured dispatch logs (assignments, reforwards,
	// ejections, terminal transitions) with job/trace/worker fields. nil
	// discards.
	Logger *slog.Logger
	// Metrics is the registry the dispatcher registers its instruments
	// in (fleet_* counters, the round-trip histogram, health gauges).
	// nil creates a private registry — NewHandler serves whichever one
	// is in effect on GET /metrics.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.ReforwardAfter <= 0 {
		o.ReforwardAfter = 3
	}
	if o.AffinitySlack <= 0 {
		o.AffinitySlack = 4
	}
	if o.Vnodes <= 0 {
		o.Vnodes = 64
	}
	if o.MaxRecords == 0 {
		o.MaxRecords = 65536
	}
	return o
}

// Stats aggregates dispatcher counters; the attached store's journal
// counters are inlined when persistent.
type Stats struct {
	Workers   int    `json:"workers"`
	Healthy   int    `json:"healthy_workers"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// Forwarded counts successful job handoffs to a worker; Reforwarded
	// the subset that re-assigned a job after its worker died or forgot
	// it.
	Forwarded   uint64 `json:"forwarded"`
	Reforwarded uint64 `json:"reforwarded"`
	// Coalesced counts submissions whose cache key was already in flight
	// through the dispatcher and were pinned to the primary's worker.
	Coalesced uint64 `json:"coalesced"`
	// AffinityHits counts routing decisions that followed the
	// consistent-hash affinity worker; AffinitySpills those diverted to
	// the least-loaded node by the slack rule.
	AffinityHits   uint64 `json:"affinity_hits"`
	AffinitySpills uint64 `json:"affinity_spills"`
	Ejected        uint64 `json:"ejected"`
	Readmitted     uint64 `json:"readmitted"`
	// Recovered counts job records replayed from the journal at boot;
	// Reattached the non-terminal subset whose workers are re-polled (and
	// the job re-forwarded if the fleet no longer knows it).
	Recovered  uint64 `json:"recovered"`
	Reattached uint64 `json:"reattached"`
	// Sweeps counts parameter-sweep jobs accepted (each one queue slot,
	// scattered range-wise over the fleet).
	Sweeps uint64 `json:"sweeps"`
	store.Stats
}

// WorkerInfo is one fleet node's health snapshot in /v1/stats.
type WorkerInfo struct {
	Name        string `json:"name"`
	Healthy     bool   `json:"healthy"`
	Outstanding int    `json:"outstanding"`
	ConsecFails int    `json:"consecutive_failures"`
	QueueLen    int    `json:"queue_len"`
	Running     int    `json:"running"`
	// Revision is the worker build's VCS revision from its last stats
	// probe ("" until the first successful probe, or for pre-telemetry
	// workers) — rolling-upgrade visibility across the fleet.
	Revision string `json:"revision,omitempty"`
}

// fleetMetrics are the registry-backed instruments behind Stats; like the
// worker pools, the counters are the system of record and Stats() reads
// them back, so /v1/stats and /metrics can never disagree.
type fleetMetrics struct {
	submitted      *obs.Counter
	completed      *obs.Counter
	failed         *obs.Counter
	canceled       *obs.Counter
	forwarded      *obs.Counter
	reforwarded    *obs.Counter
	coalesced      *obs.Counter
	affinityHits   *obs.Counter
	affinitySpills *obs.Counter
	ejected        *obs.Counter
	readmitted     *obs.Counter
	recovered      *obs.Counter
	reattached     *obs.Counter
	sweeps         *obs.Counter
	roundtrip      *obs.Histogram
}

func newFleetMetrics(reg *obs.Registry, d *Dispatcher) *fleetMetrics {
	m := &fleetMetrics{
		submitted:      reg.Counter("fleet_submitted_total", "Jobs accepted by the dispatcher."),
		completed:      reg.Counter("fleet_completed_total", "Dispatched jobs that finished in StateDone."),
		failed:         reg.Counter("fleet_failed_total", "Dispatched jobs that finished in StateFailed."),
		canceled:       reg.Counter("fleet_canceled_total", "Dispatched jobs canceled before completion."),
		forwarded:      reg.Counter("fleet_forwarded_total", "Successful job handoffs to a worker."),
		reforwarded:    reg.Counter("fleet_reforwarded_total", "Handoffs that re-assigned a job after its worker died or forgot it."),
		coalesced:      reg.Counter("fleet_coalesced_total", "Submissions pinned to an identical in-flight job's worker."),
		affinityHits:   reg.Counter("fleet_affinity_hits_total", "Routing decisions that followed the consistent-hash affinity worker."),
		affinitySpills: reg.Counter("fleet_affinity_spills_total", "Routing decisions diverted to the least-loaded node by the slack rule."),
		ejected:        reg.Counter("fleet_ejected_total", "Workers marked unhealthy after consecutive probe failures."),
		readmitted:     reg.Counter("fleet_readmitted_total", "Unhealthy workers readmitted on a probe success."),
		recovered:      reg.Counter("fleet_recovered_total", "Job records replayed from the journal at boot."),
		reattached:     reg.Counter("fleet_reattached_total", "Recovered non-terminal jobs re-attached to their workers."),
		sweeps:         reg.Counter("fleet_sweeps_total", "Parameter-sweep jobs accepted by the dispatcher."),
		roundtrip:      reg.Histogram("fleet_roundtrip_seconds", "Dispatcher→worker submit round-trip time (accepted handoffs only).", nil),
	}
	reg.GaugeFunc("fleet_workers_healthy", "Workers currently considered healthy.", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		n := 0
		for _, w := range d.workers {
			if w.healthy {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("fleet_jobs_tracked", "Jobs in the dispatcher's table (terminal records included until retention evicts them).", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.jobs))
	})
	return m
}

// Status is one dispatched job's externally visible snapshot: the same
// type a worker's pool reports, with the fleet-only fields (Worker,
// Remote, Reforwards, Ranges) filled in. CacheHit and Coalesced mirror
// the owning worker's verdict; Profile is proxied from the worker (for
// sweeps, per-kind tables merged over the ranges).
type Status = jobs.Status

// RangeInfo is one sweep range's dispatch snapshot (see jobs.RangeInfo).
type RangeInfo = jobs.RangeInfo

type worker struct {
	name        string
	c           *client
	healthy     bool
	consecFails int
	outstanding int
	lastStats   map[string]any
}

// fwdJob is the dispatcher-side job record. Mutable fields are guarded
// by Dispatcher.mu; done closes exactly once under mu. evq is the job's
// pending journal events: transitions enqueue under the mutex (so the
// journal's per-job order always equals the transition order, which
// replay's last-writer-wins merge depends on) and a single claimant
// appends them to the store off-lock (so fsyncs never stall the
// dispatcher, and concurrent jobs' appends share group-commit
// barriers).
type fwdJob struct {
	id     string
	trace  string // fleet-wide trace ID, forwarded to workers
	key    string
	engine string
	raw    json.RawMessage // canonical bundle, dropped when terminal
	pin    int
	// profile asks the executing worker for a kernel-granular profile;
	// forwarded as ?profile=true (the raw bundle is re-derived from the
	// parsed struct, so the body flag would not survive).
	profile bool
	// points is a sweep's grid size; 0 marks a plain job.
	points int
	// tasks are the job's remote units of work (see task.go): a plain
	// job's one task carries the whole bundle from submission on; a
	// sweep's range tasks appear when runJob scatters the grid, and stay
	// nil for terminal sweeps recovered from the journal (their range
	// assignments are not retained, only the merged outcome).
	tasks     []*task
	state     jobs.State
	cacheHit  bool
	coalesced bool
	shards    int
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	spans     []obs.Span // dispatch lifecycle log, appended in transition order
	done      chan struct{}
	// Journal event queue (see the type comment). evGen counts events
	// ever enqueued; flushedGen is the newest generation known appended
	// (and, per the store's fsync policy, durable). flushJob waits until
	// flushedGen catches the generation it observed at entry, so an
	// acknowledgment path can never outrun its own event's durability
	// even when a concurrent flusher claimed the queue first.
	evq        []store.Event
	evGen      uint64
	flushedGen uint64
	flushing   bool
}

// assigned is a plain job's current (or final) worker and remote job ID;
// empty for a sweep, whose assignments live on its range tasks. Callers
// hold Dispatcher.mu.
func (j *fwdJob) assigned() (worker, remote string) {
	if j.points > 0 || len(j.tasks) == 0 {
		return "", ""
	}
	return j.tasks[0].worker, j.tasks[0].remote
}

// spanLocked appends one dispatch-lifecycle span. Callers hold
// Dispatcher.mu (or run single-threaded in recovery).
func (j *fwdJob) spanLocked(stage string, d time.Duration, note string) {
	j.spans = append(j.spans, obs.NewSpan(stage, d, note))
}

// Dispatcher fronts a fleet of /v1 workers: it routes submissions,
// watches their remote lifecycle, re-forwards orphans, and serves the
// same /v1 surface itself (see NewHandler).
type Dispatcher struct {
	opts Options
	ring *ring
	hc   *http.Client
	met  *fleetMetrics
	reg  *obs.Registry
	log  *slog.Logger
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // wakes flushJob waiters when a flush batch lands
	workers  map[string]*worker
	names    []string // configured order, for stable reporting
	jobs     map[string]*fwdJob
	inflight map[string]*fwdJob // cache key → primary non-terminal job
	terminal []string
	dirty    []*fwdJob // jobs with enqueued journal events awaiting flush
	nextID   uint64
	closed   bool
}

// New starts a dispatcher over the configured workers. When a store is
// attached its journal is replayed first: terminal jobs answer Status
// again, and non-terminal jobs are re-attached to their workers (or
// re-forwarded if no worker still knows them). Call Close to stop the
// prober and job watchers.
func New(opts Options) (*Dispatcher, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	d := &Dispatcher{
		opts: opts,
		// A dedicated transport: the default keeps only 2 idle
		// connections per host, while the dispatcher concentrates many
		// concurrent status polls, probes and proxies on a handful of
		// worker hosts — reuse the connections instead of churning TCP.
		hc: &http.Client{
			Timeout: opts.RequestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		workers:  map[string]*worker{},
		jobs:     map[string]*fwdJob{},
		inflight: map[string]*fwdJob{},
	}
	d.cond = sync.NewCond(&d.mu)
	d.log = opts.Logger
	if d.log == nil {
		d.log = obs.Discard()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d.reg = reg
	d.met = newFleetMetrics(reg, d)
	d.ctx, d.stop = context.WithCancel(context.Background())
	for _, name := range opts.Workers {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, dup := d.workers[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate worker %q", name)
		}
		// Optimistically healthy so submissions route before the first
		// probe completes; the prober corrects within EjectAfter rounds.
		d.workers[name] = &worker{name: name, c: newClient(name, d.hc), healthy: true}
		d.names = append(d.names, name)
	}
	if len(d.names) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	d.ring = buildRing(d.names, opts.Vnodes)
	var reattach []*fwdJob
	if opts.Store != nil {
		reattach = d.recover()
		d.flushDirty() // recovery runs single-threaded; drain its events now
	}
	d.wg.Add(1)
	go d.prober()
	for _, j := range reattach {
		d.wg.Add(1)
		go d.runJob(j)
	}
	return d, nil
}

// recover replays the journal into the job table. Terminal records
// become queryable; queued/running records keep their assignment (their
// runner re-polls the worker for the in-flight state and re-forwards if
// it is gone) and records that never got assigned forward from scratch.
func (d *Dispatcher) recover() []*fwdJob {
	var reattach []*fwdJob
	for _, rec := range d.opts.Store.Records() {
		var n uint64
		if _, err := fmt.Sscanf(rec.Job, "job-%d", &n); err == nil && n > d.nextID {
			d.nextID = n
		}
		j := &fwdJob{
			id:        rec.Job,
			trace:     rec.Trace,
			key:       rec.Key,
			engine:    rec.Engine,
			pin:       rec.Pin,
			profile:   rec.Profile,
			points:    rec.Points,
			submitted: rec.Submitted,
			started:   rec.Started,
			finished:  rec.Finished,
			done:      make(chan struct{}),
		}
		// A sweep record's range assignments are not folded into the
		// record (they are per-range EvAssigned history), so a
		// non-terminal sweep re-scatters from scratch and a terminal one
		// answers Status but not SweepResult (see SweepResult).
		var t *task
		if rec.Points == 0 {
			t = &task{worker: rec.Worker, remote: rec.Remote}
			j.tasks = []*task{t}
		}
		d.met.recovered.Inc()
		switch rec.State {
		case store.StateDone:
			j.state = jobs.StateDone
			j.cacheHit = rec.CacheHit
			j.coalesced = rec.Coalesced
			j.shards = rec.Shards
		case store.StateFailed:
			j.state = jobs.StateFailed
			j.errMsg = rec.Error
			j.shards = rec.Shards
		case store.StateCanceled:
			j.state = jobs.StateCanceled
		default: // queued or running at crash time: re-attach
			if len(rec.Bundle) == 0 {
				// Nothing to re-forward with; surface rather than drop.
				j.state = jobs.StateFailed
				j.errMsg = "fleet: recovery: journal record has no bundle"
				j.finished = time.Now()
				d.met.failed.Inc()
				j.spanLocked("failed", 0, "journal record has no bundle")
				d.log.Warn("job failed at recovery", "job", j.id, "trace", j.trace, "err", j.errMsg)
				d.jobs[j.id] = j
				d.enqueueLocked(j, store.Event{T: store.EvFailed, Job: j.id, At: j.finished, Error: j.errMsg})
				d.finishRetention(j)
				close(j.done)
				continue
			}
			j.state = jobs.StateQueued
			j.raw = rec.Bundle
			j.started = time.Time{} // re-observed from the worker
			if t != nil {
				t.raw = rec.Bundle
				if w := d.workers[t.worker]; w != nil {
					w.outstanding++
				} else {
					// Never assigned, or the fleet config changed across the
					// restart and the assigned node is gone: forward from
					// scratch.
					t.worker, t.remote = "", ""
				}
				if d.inflight[j.key] == nil {
					d.inflight[j.key] = j
				}
			}
			d.jobs[j.id] = j
			d.met.reattached.Inc()
			j.spanLocked("queued", 0, "re-attached after restart")
			d.log.Info("job re-attached", "job", j.id, "trace", j.trace, "worker", rec.Worker)
			reattach = append(reattach, j)
			continue
		}
		d.jobs[j.id] = j
		d.finishRetention(j)
		close(j.done)
	}
	return reattach
}

// enqueueLocked queues one journal event on its job, in transition
// order. Callers hold d.mu and call flushDirty (and, on paths that
// acknowledge the transition to a client, flushJob) after releasing it.
func (d *Dispatcher) enqueueLocked(j *fwdJob, ev store.Event) {
	if d.opts.Store == nil {
		return
	}
	j.evq = append(j.evq, ev)
	j.evGen++
	d.dirty = append(d.dirty, j)
}

// flushDirty drains every job marked dirty since the last flush. Append
// failures are counted by the store and never fail the dispatch
// operation — the service degrades to in-memory rather than rejecting
// accepted work.
func (d *Dispatcher) flushDirty() {
	if d.opts.Store == nil {
		return
	}
	d.mu.Lock()
	dirty := d.dirty
	d.dirty = nil
	d.mu.Unlock()
	for _, j := range dirty {
		d.flushJob(j)
	}
}

// flushJob makes every event enqueued on the job before this call
// durable (appended under the store's fsync policy) before returning.
// One claimant at a time drains the queue (j.flushing) while waiters
// block on the condvar until the generation they observed is flushed —
// so an acknowledgment path cannot outrun its own event even when a
// concurrent flushDirty claimed the queue first. Per-job append order
// always equals enqueue order.
func (d *Dispatcher) flushJob(j *fwdJob) {
	if d.opts.Store == nil {
		return
	}
	d.mu.Lock()
	target := j.evGen
	for j.flushedGen < target {
		if j.flushing {
			d.cond.Wait()
			continue
		}
		if len(j.evq) == 0 {
			// Defensive: everything up to target is claimed or flushed.
			break
		}
		j.flushing = true
		evs := j.evq
		j.evq = nil
		gen := j.evGen
		d.mu.Unlock()
		for _, ev := range evs {
			//lint:ignore journalerr persistence failures count in store_journal_errors_total; the dispatcher keeps serving rather than failing routed jobs
			_ = d.opts.Store.Append(ev)
		}
		d.mu.Lock()
		j.flushing = false
		if gen > j.flushedGen {
			j.flushedGen = gen
		}
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// Submit validates, journals and routes one bundle. The returned status
// is the accepted job's snapshot (state queued). The raw canonical JSON
// is re-derived from the parsed bundle so the journal, the cache key and
// the forwarded payload all agree byte-for-byte.
func (d *Dispatcher) Submit(b *bundle.Bundle, pin int) (Status, error) {
	return d.SubmitTraced(b, pin, "", false)
}

// SubmitTraced is Submit with an explicit trace ID (normally the inbound
// X-Trace-Id header) and profile flag. Empty or invalid IDs are replaced
// with a generated one; the accepted ID rides the journal, every forward
// to a worker, and the status document. profile asks the executing
// worker for a kernel-granular profile, which the dispatcher proxies
// back into this job's status once the worker reports it.
func (d *Dispatcher) SubmitTraced(b *bundle.Bundle, pin int, traceID string, profile bool) (Status, error) {
	return d.accept(b, pin, traceID, profile, false)
}

// accept journals and starts one plain job or, with sweep set, one
// parameter sweep: the grid journals as ONE record and scatters after
// acceptance.
func (d *Dispatcher) accept(b *bundle.Bundle, pin int, traceID string, profile, sweep bool) (Status, error) {
	if b == nil {
		return Status{}, errors.New("fleet: nil bundle")
	}
	points := 0
	if sweep {
		if b.Context == nil || b.Context.Sweep == nil {
			return Status{}, errors.New("fleet: bundle has no sweep context block")
		}
		points = len(b.Context.Sweep.Points)
		if points == 0 {
			return Status{}, errors.New("fleet: sweep has no points")
		}
		if points > jobs.MaxSweepPoints {
			return Status{}, fmt.Errorf("fleet: sweep has %d points, max %d", points, jobs.MaxSweepPoints)
		}
	}
	key, err := jobs.CacheKey(b)
	if err != nil {
		return Status{}, err
	}
	raw, err := json.Marshal(b)
	if err != nil {
		return Status{}, fmt.Errorf("fleet: marshal bundle: %w", err)
	}
	engine := jobs.ResolveEngine(b)
	now := time.Now()

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return Status{}, jobs.ErrClosed
	}
	d.nextID++
	j := &fwdJob{
		id:        fmt.Sprintf("job-%08d", d.nextID),
		trace:     obs.EnsureTraceID(traceID),
		key:       key,
		engine:    engine,
		raw:       raw,
		pin:       pin,
		profile:   profile,
		points:    points,
		state:     jobs.StateQueued,
		submitted: now,
		done:      make(chan struct{}),
	}
	d.jobs[j.id] = j
	d.met.submitted.Inc()
	switch primary := d.inflight[key]; {
	case sweep:
		// Sweeps skip the in-flight coalescing table: their work is spread
		// over the fleet, so there is no single "primary worker" to pin a
		// twin to.
		d.met.sweeps.Inc()
		j.spanLocked("queued", 0, fmt.Sprintf("sweep points=%d", points))
	case primary != nil:
		// A twin is already in flight through the dispatcher: the router
		// will pin this job to the primary's worker so the worker-side
		// pool coalesces them onto one execution.
		d.met.coalesced.Inc()
		j.spanLocked("queued", 0, "coalesces with "+primary.id)
	default:
		d.inflight[key] = j
		j.spanLocked("queued", 0, "")
	}
	if !sweep {
		j.tasks = []*task{{raw: raw}}
	}
	d.enqueueLocked(j, store.Event{T: store.EvSubmitted, Job: j.id, Trace: j.trace, At: now, Key: key, Engine: engine, Bundle: raw, Pin: pin, Points: points, Profile: profile})
	d.wg.Add(1)
	st := d.statusLocked(j)
	d.mu.Unlock()
	d.log.Info("job accepted", "job", j.id, "trace", j.trace, "engine", engine, "points", points)

	// Append after releasing the dispatcher lock: concurrent submitters
	// then share group-commit fsync barriers instead of serializing
	// their syncs behind d.mu, while the per-job queue keeps this job's
	// journal order equal to its transition order. flushJob then blocks
	// until this job's submitted event is durable — the 202 must not
	// outrun the fsync even if a concurrent flusher claimed the queue.
	d.flushDirty()
	d.flushJob(j)
	go d.runJob(j)
	return st, nil
}

// finishLocked moves the job to a terminal state: stats, the terminal
// journal event, outstanding bookkeeping for tasks still live on a
// worker, in-flight pin cleanup, bundle drop, done close, and bounded
// retention. Callers hold d.mu and flush the journal after unlocking.
func (d *Dispatcher) finishLocked(j *fwdJob, state jobs.State) {
	j.state = state
	j.finished = time.Now()
	var run time.Duration
	if !j.started.IsZero() {
		run = j.finished.Sub(j.started)
	}
	worker, _ := j.assigned()
	ev := store.Event{Job: j.id, Trace: j.trace, At: j.finished}
	switch state {
	case jobs.StateDone:
		ev.T, ev.Engine, ev.CacheHit, ev.Coalesced = store.EvDone, j.engine, j.cacheHit, j.coalesced
		d.met.completed.Inc()
		j.spanLocked("done", run, "")
		d.log.Info("job done", "job", j.id, "trace", j.trace, "worker", worker, "run_ms", float64(run)/1e6)
	case jobs.StateFailed:
		ev.T, ev.Engine, ev.Coalesced, ev.Error = store.EvFailed, j.engine, j.coalesced, j.errMsg
		d.met.failed.Inc()
		j.spanLocked("failed", run, j.errMsg)
		d.log.Warn("job failed", "job", j.id, "trace", j.trace, "worker", worker, "err", j.errMsg)
	case jobs.StateCanceled:
		ev.T = store.EvCanceled
		d.met.canceled.Inc()
		j.spanLocked("canceled", 0, "")
		d.log.Info("job canceled", "job", j.id, "trace", j.trace, "worker", worker)
	}
	d.enqueueLocked(j, ev)
	for _, t := range j.tasks {
		if w := d.workers[t.worker]; w != nil && t.state == "" {
			w.outstanding--
		}
		t.raw = nil
	}
	if d.inflight[j.key] == j {
		delete(d.inflight, j.key)
	}
	j.raw = nil
	close(j.done)
	d.finishRetention(j)
}

// finishRetention appends the job to the terminal ring and evicts the
// oldest records beyond MaxRecords, mirroring the worker pools' bounded
// retention. Callers hold d.mu (or run single-threaded in recovery).
func (d *Dispatcher) finishRetention(j *fwdJob) {
	if d.opts.MaxRecords < 0 {
		return
	}
	d.terminal = append(d.terminal, j.id)
	for len(d.terminal) > d.opts.MaxRecords {
		evicted := d.terminal[0]
		d.terminal = d.terminal[1:]
		if ej := d.jobs[evicted]; ej != nil {
			// Enqueue on the evicted job's own queue so the forget event
			// can never overtake a still-pending lifecycle event of that
			// job in the journal.
			d.enqueueLocked(ej, store.Event{T: store.EvForget, Job: evicted, At: time.Now()})
		}
		delete(d.jobs, evicted)
	}
}

// sleep waits one cadence interval, waking early on dispatcher shutdown
// (returns false) or the job turning terminal.
func (d *Dispatcher) sleep(dur time.Duration, j *fwdJob) bool {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-d.ctx.Done():
		return false
	case <-j.done:
		return true
	case <-t.C:
		return true
	}
}

func (d *Dispatcher) workerByName(name string) *worker {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.workers[name]
}

// prober polls every worker's /v1/stats on the probe cadence, ejecting
// after EjectAfter consecutive failures and readmitting on the first
// success.
func (d *Dispatcher) prober() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-t.C:
		}
		d.probeOnce()
	}
}

func (d *Dispatcher) probeOnce() {
	type outcome struct {
		name  string
		stats map[string]any
		err   error
	}
	d.mu.Lock()
	clients := make(map[string]*client, len(d.workers))
	for name, w := range d.workers {
		clients[name] = w.c
	}
	d.mu.Unlock()
	results := make(chan outcome, len(clients))
	for name, c := range clients {
		go func(name string, c *client) {
			ctx, cancel := context.WithTimeout(d.ctx, d.opts.RequestTimeout)
			defer cancel()
			st, err := c.stats(ctx)
			results <- outcome{name: name, stats: st, err: err}
		}(name, c)
	}
	for range clients {
		o := <-results
		d.mu.Lock()
		w := d.workers[o.name]
		switch {
		case o.err != nil:
			w.consecFails++
			if w.healthy && w.consecFails >= d.opts.EjectAfter {
				w.healthy = false
				d.met.ejected.Inc()
				obs.Record(obs.FlightFleetEject, "", fmt.Sprintf("worker %s after %d probe failures", o.name, w.consecFails))
				d.log.Warn("worker ejected", "worker", o.name, "consecutive_failures", w.consecFails)
			}
		default:
			w.consecFails = 0
			w.lastStats = o.stats
			if !w.healthy {
				w.healthy = true
				d.met.readmitted.Inc()
				obs.Record(obs.FlightFleetReadmit, "", "worker "+o.name)
				d.log.Info("worker readmitted", "worker", o.name)
			}
		}
		d.mu.Unlock()
	}
}

// Status returns a job's snapshot.
func (d *Dispatcher) Status(id string) (Status, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", jobs.ErrNotFound, id)
	}
	return d.statusLocked(j), nil
}

func (d *Dispatcher) statusLocked(j *fwdJob) Status {
	worker, remote := j.assigned()
	st := Status{
		ID:          j.id,
		Trace:       j.trace,
		Spans:       append([]obs.Span(nil), j.spans...),
		State:       j.state,
		Engine:      j.engine,
		Worker:      worker,
		Remote:      remote,
		CacheHit:    j.cacheHit,
		Coalesced:   j.coalesced,
		Shards:      j.shards,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
	st.QueueWait, st.RunTime = jobs.Durations(j.submitted, j.started, j.finished)
	// Reforwards counts every task's moves between workers.
	for _, t := range j.tasks {
		if t.forwards > 1 {
			st.Reforwards += t.forwards - 1
		}
	}
	if j.state.Terminal() {
		st.Progress = 1 // as on a worker, for plain jobs too
	}
	if j.points == 0 {
		if len(j.tasks) == 1 {
			st.Profile = j.tasks[0].profile
		}
		return st
	}
	st.Sweep, st.Points = true, j.points
	var profiles []json.RawMessage
	for _, t := range j.tasks {
		st.PointsDone += t.pointsDone
		state := "queued"
		switch {
		case t.state != "":
			state = string(t.state)
		case t.worker != "":
			state = "running"
		}
		st.Ranges = append(st.Ranges, RangeInfo{
			From:       t.from,
			To:         t.to,
			State:      state,
			Worker:     t.worker,
			Remote:     t.remote,
			PointsDone: t.pointsDone,
			Forwards:   t.forwards,
			Error:      t.errMsg,
		})
		if j.profile {
			profiles = append(profiles, t.profile)
		}
	}
	if j.state == jobs.StateDone {
		st.PointsDone = j.points // incl. terminal records recovered without ranges
	}
	if !j.state.Terminal() {
		st.Progress = float64(st.PointsDone) / float64(j.points)
	}
	if j.state == jobs.StateRunning && st.PointsDone > 0 && st.PointsDone < j.points && !j.started.IsZero() {
		st.ETA = time.Since(j.started) / time.Duration(st.PointsDone) * time.Duration(j.points-st.PointsDone)
	}
	// Per-kind tables merged over the ranges, in the same shape a single
	// worker reports for a whole sweep.
	st.Profile = jobs.MergeSweepProfiles(profiles)
	return st
}

// List returns snapshots of every tracked job, newest first; a non-empty
// state filters, limit caps (<= 0: no cap). The dispatcher's table IS
// the fleet-merged history: every job submitted through the front-end,
// with its owning worker in each snapshot.
func (d *Dispatcher) List(state jobs.State, limit int) []Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.jobs))
	for id, j := range d.jobs {
		if state != "" && j.state != state {
			continue
		}
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]Status, len(ids))
	for i, id := range ids {
		out[i] = d.statusLocked(d.jobs[id])
	}
	return out
}

// Wait blocks until the job is terminal, then returns its snapshot.
func (d *Dispatcher) Wait(id string) (Status, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", jobs.ErrNotFound, id)
	}
	<-j.done
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.statusLocked(j), nil
}

// Result proxies the job's result document from its owning worker,
// returning the worker's HTTP status code and body verbatim. Jobs that
// never reached a worker follow the pool's error semantics; a done job
// whose worker cannot serve the document fails with
// jobs.ErrUnreachable.
func (d *Dispatcher) Result(ctx context.Context, id string) (int, []byte, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %q", jobs.ErrNotFound, id)
	}
	state, errMsg := j.state, j.errMsg
	workerName, remote := j.assigned()
	d.mu.Unlock()
	switch state {
	case jobs.StateFailed:
		return 0, nil, errors.New(errMsg) // served as a worker serves its own failure
	case jobs.StateCanceled:
		return 0, nil, fmt.Errorf("%w: %q", jobs.ErrCanceled, id)
	case jobs.StateDone:
		if workerName == "" || remote == "" {
			return 0, nil, unreachable{fmt.Errorf("fleet: job %q has no worker assignment on record", id)}
		}
		w := d.workerByName(workerName)
		if w == nil {
			return 0, nil, unreachable{fmt.Errorf("fleet: job %q belongs to unknown worker %q", id, workerName)}
		}
		cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
		defer cancel()
		code, body, err := w.c.resultRaw(cctx, remote)
		if err != nil {
			return 0, nil, unreachable{err}
		}
		return code, body, nil
	default:
		return 0, nil, fmt.Errorf("%w: %q is %s", jobs.ErrNotFinished, id, state)
	}
}

// ErrConflict marks a cancel refused by state (already terminal, or
// running remotely and not preemptible), exactly as on a worker; the
// handler maps it to 409.
var ErrConflict = jobs.ErrConflict

// Cancel cancels a dispatched job. An unassigned plain job cancels
// locally; an assigned one forwards DELETE to its owning worker under the
// caller's context plus the request timeout, so a hung worker cannot
// wedge the canceling goroutine. A worker that already forgot the job (it
// restarted) counts as canceled too — the runner would only re-run work
// the client no longer wants. The DELETE races the runner's re-forward
// path, so after each round trip the assignment is re-checked under the
// lock: if the job moved workers meanwhile, the cancel chases it to the
// new node rather than reporting success while a live copy keeps running
// elsewhere. A sweep cancels locally first and then cancels every live
// range's remote sub-sweep best-effort; a range that slips through keeps
// running remotely but its results are never fetched.
func (d *Dispatcher) Cancel(ctx context.Context, id string) (Status, error) {
	for attempt := 0; attempt < 4; attempt++ {
		d.mu.Lock()
		j, ok := d.jobs[id]
		if !ok {
			d.mu.Unlock()
			return Status{}, fmt.Errorf("%w: %q", jobs.ErrNotFound, id)
		}
		if j.state.Terminal() {
			st := d.statusLocked(j)
			d.mu.Unlock()
			if attempt > 0 {
				// Went terminal during the chase (observe() or our own
				// earlier DELETE landing); nothing left to cancel.
				return st, nil
			}
			return st, fmt.Errorf("%w: %q is already %s", ErrConflict, id, st.State)
		}
		var live []task // worker/remote snapshots of tasks still running remotely
		for _, t := range j.tasks {
			if t.state == "" && t.worker != "" && t.remote != "" {
				live = append(live, task{worker: t.worker, remote: t.remote})
			}
		}
		if j.points > 0 || len(live) == 0 {
			// The runners wake on done and exit.
			d.finishLocked(j, jobs.StateCanceled)
			st := d.statusLocked(j)
			d.mu.Unlock()
			for _, t := range live {
				if w := d.workerByName(t.worker); w != nil {
					cctx, ccancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
					w.c.cancel(cctx, t.remote)
					ccancel()
				}
			}
			d.flushDirty()
			d.flushJob(j) // the 200 must not outrun the canceled event's fsync
			return st, nil
		}
		d.mu.Unlock()

		workerName, remote := live[0].worker, live[0].remote
		w := d.workerByName(workerName)
		cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
		code, body, err := w.c.cancel(cctx, remote)
		cancel()
		if err != nil {
			return Status{}, unreachable{fmt.Errorf("fleet: cancel %q on %s: %w", id, workerName, err)}
		}
		switch code {
		case http.StatusOK, http.StatusNotFound:
			d.mu.Lock()
			if cur, curRemote := j.assigned(); cur != workerName || curRemote != remote {
				// Re-forwarded while the DELETE was in flight: the copy we
				// canceled is not the live one. Chase the new assignment.
				d.mu.Unlock()
				continue
			}
			if !j.state.Terminal() {
				d.finishLocked(j, jobs.StateCanceled)
			}
			st := d.statusLocked(j)
			d.mu.Unlock()
			d.flushDirty()
			d.flushJob(j) // the 200 must not outrun the canceled event's fsync
			return st, nil
		default:
			return Status{}, fmt.Errorf("%w: %s", ErrConflict, decodeErr(code, body))
		}
	}
	return Status{}, unreachable{fmt.Errorf("fleet: cancel %q: assignment kept moving; retry", id)}
}

// Engines returns the union of engine names across healthy workers.
func (d *Dispatcher) Engines(ctx context.Context) ([]string, error) {
	d.mu.Lock()
	clients := make([]*client, 0, len(d.workers))
	for _, name := range d.names {
		if w := d.workers[name]; w.healthy {
			clients = append(clients, w.c)
		}
	}
	d.mu.Unlock()
	if len(clients) == 0 {
		return nil, errors.New("fleet: no healthy workers")
	}
	type outcome struct {
		engines []string
		err     error
	}
	results := make(chan outcome, len(clients))
	for _, c := range clients {
		go func(c *client) {
			cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
			defer cancel()
			engines, err := c.engines(cctx)
			results <- outcome{engines, err}
		}(c)
	}
	union := map[string]bool{}
	var lastErr error
	got := false
	for range clients {
		o := <-results
		if o.err != nil {
			lastErr = o.err
			continue
		}
		got = true
		for _, e := range o.engines {
			union[e] = true
		}
	}
	if !got {
		return nil, lastErr
	}
	out := make([]string, 0, len(union))
	for e := range union {
		out = append(out, e)
	}
	sort.Strings(out)
	return out, nil
}

// Stats snapshots the dispatcher counters (journal counters inlined when
// persistent). The counters are read back from the registry instruments,
// so this document and /metrics always agree.
func (d *Dispatcher) Stats() Stats {
	var s Stats
	s.Submitted = d.met.submitted.Value()
	s.Completed = d.met.completed.Value()
	s.Failed = d.met.failed.Value()
	s.Canceled = d.met.canceled.Value()
	s.Forwarded = d.met.forwarded.Value()
	s.Reforwarded = d.met.reforwarded.Value()
	s.Coalesced = d.met.coalesced.Value()
	s.AffinityHits = d.met.affinityHits.Value()
	s.AffinitySpills = d.met.affinitySpills.Value()
	s.Ejected = d.met.ejected.Value()
	s.Readmitted = d.met.readmitted.Value()
	s.Recovered = d.met.recovered.Value()
	s.Reattached = d.met.reattached.Value()
	s.Sweeps = d.met.sweeps.Value()
	d.mu.Lock()
	s.Workers = len(d.workers)
	for _, w := range d.workers {
		if w.healthy {
			s.Healthy++
		}
	}
	d.mu.Unlock()
	if d.opts.Store != nil {
		s.Stats = d.opts.Store.Stats()
	}
	return s
}

// Metrics returns the registry the dispatcher's instruments live in
// (Options.Metrics, or the private one created when that was nil).
func (d *Dispatcher) Metrics() *obs.Registry { return d.reg }

// WorkerInfos snapshots per-node health for /v1/stats, in configured
// order.
func (d *Dispatcher) WorkerInfos() []WorkerInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]WorkerInfo, 0, len(d.names))
	for _, name := range d.names {
		w := d.workers[name]
		info := WorkerInfo{
			Name:        name,
			Healthy:     w.healthy,
			Outstanding: w.outstanding,
			ConsecFails: w.consecFails,
		}
		if v, ok := w.lastStats["queue_len"].(float64); ok {
			info.QueueLen = int(v)
		}
		if v, ok := w.lastStats["running"].(float64); ok {
			info.Running = int(v)
		}
		if build, ok := w.lastStats["build"].(map[string]any); ok {
			if rev, ok := build["revision"].(string); ok {
				info.Revision = rev
			}
		}
		out = append(out, info)
	}
	return out
}

// FleetStats sums the numeric counters of every worker's last probe —
// the fleet-wide aggregate served under "fleet" in /v1/stats.
func (d *Dispatcher) FleetStats() map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	agg := map[string]float64{}
	for _, w := range d.workers {
		for k, v := range w.lastStats {
			if f, ok := v.(float64); ok {
				agg[k] += f
			}
		}
	}
	return agg
}

// Close stops the prober and the per-job watchers and flushes the
// journal. Jobs still running on workers keep running there; the journal
// holds their assignments, so a restarted dispatcher re-attaches to
// them.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.stop()
	d.wg.Wait()
	if d.opts.Store != nil {
		//lint:ignore journalerr final courtesy flush on shutdown; every event already met its policy's durability barrier when appended
		_ = d.opts.Store.Sync()
	}
}
