package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/obs"
)

// task is one remote unit of a dispatched job's work: the whole bundle
// of a plain job, POSTed to /v1/jobs, or one [from,to) slice of a sweep's
// grid, POSTed to /v1/sweeps as an independent sub-sweep. Every task
// moves through the same lifecycle (assign → poll → re-forward on loss →
// terminal) under runTask. Mutable fields are guarded by Dispatcher.mu.
type task struct {
	from, to   int             // grid slice; both zero for a plain job's task
	raw        json.RawMessage // payload forwarded to the worker
	prefer     string          // scatter-time worker choice, for initial spread (ranges only)
	worker     string          // owning node ("" while unassigned)
	remote     string          // job ID on that node
	avoid      string          // node to skip on the next forward (it just lost the task)
	forwards   int
	pointsDone int        // remote per-point progress, range-local
	state      jobs.State // "" while live; done, failed or canceled once it ended
	errMsg     string
	// profile is the owning worker's profile document, captured opaquely:
	// a kernel table for a plain job, a per-kind aggregate for a range.
	// Overwritten rather than kept-first, so after a re-forward it
	// describes the execution that actually produced the result.
	profile json.RawMessage
}

// tag prefixes a range's span notes with its grid slice; "" for a plain
// job's task.
func (t *task) tag() string {
	if t.to == 0 {
		return ""
	}
	return fmt.Sprintf("range [%d,%d) ", t.from, t.to)
}

// logAttrs are the structured log fields naming the job and, for a
// range, its grid slice.
func (t *task) logAttrs(j *fwdJob, kv ...any) []any {
	attrs := []any{"job", j.id, "trace", j.trace}
	if t.to > 0 {
		attrs = append(attrs, "from", t.from, "to", t.to)
	}
	return append(attrs, kv...)
}

// runJob owns one job's dispatch: a sweep first scatters its grid into
// range tasks, then every task runs its own forwarding lifecycle. It
// exits when the job is terminal or the dispatcher closes (the journal
// then carries the state to the next process life).
func (d *Dispatcher) runJob(j *fwdJob) {
	defer d.wg.Done()
	if j.points > 0 && !d.scatter(j) {
		return
	}
	d.mu.Lock()
	tasks := j.tasks
	d.mu.Unlock()
	if len(tasks) == 1 {
		d.runTask(j, tasks[0])
		return
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.runTask(j, t)
		}()
	}
	wg.Wait()
}

// runTask owns one task's forwarding lifecycle: assign a worker, poll the
// remote status once right after each forward and then every
// PollInterval, and re-forward this task — and only this task — when its
// worker dies or forgets it. It returns when the task or its job ended,
// or the dispatcher closes.
func (d *Dispatcher) runTask(j *fwdJob, t *task) {
	pollFails := 0
	for d.ctx.Err() == nil {
		d.mu.Lock()
		if j.state.Terminal() || t.state != "" {
			d.mu.Unlock()
			return
		}
		workerName, remote := t.worker, t.remote
		d.mu.Unlock()

		if workerName == "" || remote == "" {
			if !d.forward(j, t) {
				// No worker reachable right now; the journal already holds
				// the job, so keep retrying until the fleet comes back.
				if !d.sleep(d.opts.ProbeInterval, j) {
					return
				}
			}
			pollFails = 0
			continue
		}

		w := d.workerByName(workerName)
		ctx, cancel := context.WithTimeout(d.ctx, d.opts.RequestTimeout)
		st, notFound, err := w.c.status(ctx, remote)
		cancel()
		switch {
		case err != nil:
			pollFails++
			if pollFails >= d.opts.ReforwardAfter {
				d.detach(j, t, workerName)
				pollFails = 0
				continue
			}
		case notFound:
			// The worker answered but no longer knows the task: it
			// restarted without durable state. Re-forward immediately.
			d.detach(j, t, workerName)
			pollFails = 0
			continue
		default:
			pollFails = 0
			if d.observe(j, t, st) {
				return
			}
		}
		if !d.sleep(d.opts.PollInterval, j) {
			return
		}
	}
}

// forward assigns the task to a worker and POSTs it. It tries the routing
// choice first and rotates through the remaining healthy workers on
// transport errors or backpressure; the node that just lost the task
// (t.avoid) is skipped unless it is the only one left. Returns false when
// no worker accepted.
func (d *Dispatcher) forward(j *fwdJob, t *task) bool {
	path := "/v1/jobs"
	if j.points > 0 {
		path = "/v1/sweeps"
	}
	tried := map[string]bool{}
	d.mu.Lock()
	if j.state.Terminal() { // finishLocked already dropped the payload
		d.mu.Unlock()
		return true
	}
	avoid, raw := t.avoid, t.raw
	d.mu.Unlock()
	if avoid != "" {
		tried[avoid] = true
	}
	for round := 0; ; {
		name := d.pick(j, t, tried)
		if name == "" {
			if round == 0 && avoid != "" {
				// Every alternative is down; the avoided node may be the
				// only fleet left (e.g. it restarted in-memory). Allow it.
				delete(tried, avoid)
				round++
				continue
			}
			return false
		}
		tried[name] = true
		w := d.workerByName(name)
		ctx, cancel := context.WithTimeout(d.ctx, d.opts.RequestTimeout)
		rtStart := time.Now()
		sub, err := w.c.submit(ctx, path, raw, j.pin, j.trace, j.profile)
		rt := time.Since(rtStart)
		cancel()
		if err != nil {
			continue // busy or unreachable: next candidate
		}
		d.met.roundtrip.Observe(rt)
		d.mu.Lock()
		if j.state.Terminal() { // canceled while forwarding
			d.mu.Unlock()
			// The worker now holds an orphan twin; best-effort cancel it.
			cctx, ccancel := context.WithTimeout(d.ctx, d.opts.RequestTimeout)
			w.c.cancel(cctx, sub.ID)
			ccancel()
			return true
		}
		t.worker, t.remote = name, sub.ID
		t.avoid = ""
		t.forwards++
		reforward := t.forwards > 1
		note := name + " as " + sub.ID
		switch {
		case reforward:
			note = "re-forwarded to " + note
			d.met.reforwarded.Inc()
		case t.to > 0:
			note = "to " + note
		}
		note = t.tag() + note
		j.spanLocked("assigned", rt, note)
		d.met.forwarded.Inc()
		w.outstanding++
		// A plain job's task journals without from/to (both zero, omitted).
		d.enqueueLocked(j, store.Event{T: store.EvAssigned, Job: j.id, Trace: j.trace, At: time.Now(), Worker: name, Remote: sub.ID, From: t.from, To: t.to})
		d.mu.Unlock()
		if reforward {
			d.log.Warn("job re-forwarded", t.logAttrs(j, "worker", name, "remote", sub.ID)...)
		} else {
			d.log.Info("job forwarded", t.logAttrs(j, "worker", name, "remote", sub.ID)...)
		}
		obs.RecordDur(obs.FlightFleetForward, j.id, note, rt)
		d.flushDirty()
		return true
	}
}

// pick chooses the worker for a task's next forward; workers in tried are
// excluded. A sweep range goes to its scatter-time preferred node so
// concurrent ranges spread across the fleet, else to the least-loaded
// one. A plain job goes to the in-flight primary's worker when its key
// is already dispatched (dispatcher-level coalescing), else to the
// consistent-hash affinity node unless the slack rule spills it to the
// least-loaded healthy worker.
func (d *Dispatcher) pick(j *fwdJob, t *task, tried map[string]bool) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ok := func(name string) bool {
		w := d.workers[name]
		return w != nil && w.healthy && !tried[name]
	}
	var least *worker
	for _, name := range d.names {
		if w := d.workers[name]; ok(name) && (least == nil || w.outstanding < least.outstanding) {
			least = w
		}
	}
	switch {
	case j.points > 0 && t.prefer != "" && ok(t.prefer):
		return t.prefer
	case least == nil:
		return ""
	case j.points > 0:
		return least.name
	}
	if primary := d.inflight[j.key]; primary != nil && primary != j {
		if name, _ := primary.assigned(); name != "" && ok(name) {
			return name
		}
	}
	affinity := d.ring.lookup(j.key, ok)
	if affinity == "" {
		return least.name
	}
	if aw := d.workers[affinity]; aw.outstanding > least.outstanding+d.opts.AffinitySlack {
		d.met.affinitySpills.Inc()
		return least.name
	}
	d.met.affinityHits.Inc()
	return affinity
}

// detach severs the task from a worker that died or forgot it; its runner
// forwards it elsewhere next. The job's other tasks keep their
// assignments — only unfinished work moves — and a plain job, whose one
// task is the whole job, is queued again.
func (d *Dispatcher) detach(j *fwdJob, t *task, workerName string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.state.Terminal() || t.state != "" {
		// The job or task already ended (and released the worker's
		// outstanding count); detaching now would double-decrement.
		return
	}
	if t.worker != workerName { // raced with a re-forward
		return
	}
	t.worker, t.remote = "", ""
	t.avoid = workerName
	t.pointsDone = 0 // the replacement worker re-runs the whole task
	if w := d.workers[workerName]; w != nil {
		w.outstanding--
	}
	if j.points == 0 {
		j.started = time.Time{}
		if j.state == jobs.StateRunning {
			j.state = jobs.StateQueued
		}
	}
	note := t.tag() + "worker " + workerName + " lost the job"
	j.spanLocked("detached", 0, note)
	obs.Record(obs.FlightFleetDetach, j.id, note)
	d.log.Warn("job detached", t.logAttrs(j, "worker", workerName)...)
}

// observe folds a remote status snapshot into the task and its job.
// Returns true when the task ended.
func (d *Dispatcher) observe(j *fwdJob, t *task, st remoteStatus) bool {
	d.mu.Lock()
	if j.state.Terminal() || t.state != "" {
		d.mu.Unlock()
		return true
	}
	if st.Engine != "" {
		j.engine = st.Engine
	}
	if st.Shards > 0 {
		j.shards = st.Shards
	}
	if j.points == 0 {
		// A plain job's one task is the whole job: mirror the worker's
		// cache verdict. A sweep's ranges each have their own.
		j.cacheHit, j.coalesced = st.CacheHit, st.Coalesced
	}
	if st.PointsDone > t.pointsDone {
		t.pointsDone = st.PointsDone
	}
	if len(st.Profile) > 0 {
		t.profile = st.Profile
	}
	switch jobs.State(st.State) {
	case jobs.StateRunning:
		if j.state == jobs.StateQueued {
			j.state = jobs.StateRunning
			j.started = time.Now()
			j.spanLocked("started", 0, t.tag()+"on "+t.worker)
			d.enqueueLocked(j, store.Event{T: store.EvStarted, Job: j.id, Trace: j.trace, At: j.started, Shards: st.Shards})
		}
	case jobs.StateDone:
		d.endTaskLocked(j, t, jobs.StateDone, "")
	case jobs.StateFailed:
		d.endTaskLocked(j, t, jobs.StateFailed, st.Error)
	case jobs.StateCanceled:
		// Canceled out-of-band on the worker itself. That cancels a plain
		// job; a sweep missing a range cannot complete, so the range fails
		// and the sweep surfaces it rather than hanging.
		if j.points == 0 {
			d.endTaskLocked(j, t, jobs.StateCanceled, "")
		} else {
			d.endTaskLocked(j, t, jobs.StateFailed, fmt.Sprintf("fleet: range [%d,%d) canceled on worker %s", t.from, t.to, t.worker))
		}
	}
	ended := t.state != ""
	d.mu.Unlock()
	d.flushDirty()
	return ended
}

// endTaskLocked records a task's outcome and releases its worker's
// outstanding slot. Once every task of the job has ended it settles the
// job: any failed task fails it (with the first failure in grid order),
// else any canceled task cancels it, else it is done. Callers hold d.mu.
func (d *Dispatcher) endTaskLocked(j *fwdJob, t *task, state jobs.State, errMsg string) {
	t.state, t.errMsg = state, errMsg
	if state == jobs.StateDone {
		t.pointsDone = t.to - t.from
	}
	if w := d.workers[t.worker]; w != nil {
		w.outstanding--
	}
	if j.points > 0 {
		note := fmt.Sprintf("[%d,%d) on %s", t.from, t.to, t.worker)
		if errMsg != "" {
			note += ": " + errMsg
		}
		j.spanLocked("range "+string(state), 0, note)
		obs.Record(obs.FlightSweepRange, j.id, "range "+string(state)+" "+note)
	}
	state, errMsg = jobs.StateDone, ""
	for _, other := range j.tasks {
		switch {
		case other.state == "":
			return
		case other.state == jobs.StateFailed && state != jobs.StateFailed:
			state, errMsg = jobs.StateFailed, other.errMsg
		case other.state == jobs.StateCanceled && state == jobs.StateDone:
			state = jobs.StateCanceled
		}
	}
	j.errMsg = errMsg
	d.finishLocked(j, state)
}
