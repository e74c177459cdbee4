// Sweep scatter: the dispatcher accepts a parameter-sweep bundle as ONE
// job, splits its point grid into contiguous ranges — one per healthy
// worker — and forwards each range to its worker as an independent
// sub-sweep bundle (the template with Context.Sweep.Points sliced).
// Each range is one task of the job (see task.go) with its own watcher;
// when a worker dies mid-sweep only its unfinished ranges re-forward,
// finished ranges keep their results where they are. GET /v1/sweeps/{id}
// merges the per-range result sets back into one globally indexed set.
// Because BindPoint strips the sweep block before fingerprinting, a point
// bound from a sub-range template is bit-identical — counts, cache key,
// intent fingerprint — to the same point bound from the full template,
// which is what makes the scattered result set indistinguishable from a
// single-node sweep.

package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/qop"
)

// ErrNotSweep marks a sweep-only operation on a plain job.
var ErrNotSweep = errors.New("fleet: not a sweep job")

// SubmitSweep accepts a parameter-sweep bundle as one dispatched job.
// The grid journals as ONE record; the scatter happens after acceptance.
func (d *Dispatcher) SubmitSweep(b *bundle.Bundle) (Status, error) {
	return d.accept(b, 0, "", false, true)
}

// scatter slices a sweep's grid into one range task per healthy worker,
// waiting while none is reachable (the journal already holds the job).
// It returns false, with nothing left to run, when the sweep ended first,
// the dispatcher is closing, or the template cannot be sliced (which
// fails the sweep).
func (d *Dispatcher) scatter(j *fwdJob) bool {
	d.mu.Lock()
	raw := j.raw // nil once a cancel finished the sweep
	d.mu.Unlock()
	if raw == nil {
		return false
	}
	tmpl, err := bundle.FromJSON(raw, qop.ValidateOptions{AllowMidCircuit: d.opts.AllowMidCircuit})
	if err != nil {
		d.failSweep(j, fmt.Sprintf("fleet: sweep template: %v", err))
		return false
	}
	points := tmpl.Context.Sweep.Points
	var names []string
	for d.ctx.Err() == nil {
		names = d.healthyNames()
		if len(names) > 0 {
			break
		}
		d.mu.Lock()
		terminal := j.state.Terminal()
		d.mu.Unlock()
		if terminal || !d.sleep(d.opts.ProbeInterval, j) {
			return false
		}
	}
	if d.ctx.Err() != nil {
		return false
	}
	k := min(len(names), len(points))
	tasks := make([]*task, 0, k)
	per, extra := len(points)/k, len(points)%k
	from := 0
	for i := 0; i < k; i++ {
		to := from + per
		if i < extra {
			to++
		}
		sub, err := subSweepRaw(tmpl, from, to)
		if err != nil {
			d.failSweep(j, fmt.Sprintf("fleet: slice sweep range [%d,%d): %v", from, to, err))
			return false
		}
		tasks = append(tasks, &task{from: from, to: to, raw: sub, prefer: names[i]})
		from = to
	}

	d.mu.Lock()
	if j.state.Terminal() { // canceled while slicing
		d.mu.Unlock()
		return false
	}
	j.tasks = tasks
	j.spanLocked("scattered", 0, fmt.Sprintf("%d points over %d ranges", len(points), k))
	d.mu.Unlock()
	d.log.Info("sweep scattered", "job", j.id, "trace", j.trace, "points", len(points), "ranges", k)
	return true
}

// failSweep marks the whole sweep failed before any range forwarded.
func (d *Dispatcher) failSweep(j *fwdJob, msg string) {
	d.mu.Lock()
	if !j.state.Terminal() {
		j.errMsg = msg
		d.finishLocked(j, jobs.StateFailed)
	}
	d.mu.Unlock()
	d.flushDirty()
}

// healthyNames snapshots the healthy workers in configured order.
func (d *Dispatcher) healthyNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, name := range d.names {
		if w := d.workers[name]; w != nil && w.healthy {
			out = append(out, name)
		}
	}
	return out
}

// subSweepRaw renders the template with its point grid sliced to
// [from,to) — the independent sub-sweep bundle one worker runs. Only the
// context block is copied; registers and operators are shared.
func subSweepRaw(tmpl *bundle.Bundle, from, to int) (json.RawMessage, error) {
	cp := *tmpl
	ctx := *tmpl.Context
	sw := *ctx.Sweep
	sw.Points = sw.Points[from:to]
	ctx.Sweep = &sw
	cp.Context = &ctx
	raw, err := json.Marshal(&cp)
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// SweepPointJSON is one merged per-point result in a dispatcher sweep
// result document; Index is the global grid index.
type SweepPointJSON = jobs.SweepPoint

// remoteSweepDoc is a worker's GET /v1/sweeps/{id} document (the fields
// the dispatcher merges).
type remoteSweepDoc struct {
	Engine  string           `json:"engine"`
	Results []SweepPointJSON `json:"results"`
}

// SweepResult merges the per-range result sets from their owning
// workers into one globally indexed set. Only terminal sweeps answer;
// a sweep recovered as terminal from the journal after a dispatcher
// restart no longer knows its range assignments and reports that
// explicitly. Once the sweep is known to be done, every error is the
// ranges' workers' (jobs.ErrUnreachable).
func (d *Dispatcher) SweepResult(ctx context.Context, id string) ([]SweepPointJSON, string, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return nil, "", fmt.Errorf("%w: %q", jobs.ErrNotFound, id)
	}
	if j.points == 0 {
		d.mu.Unlock()
		return nil, "", fmt.Errorf("%w: %q", ErrNotSweep, id)
	}
	state, engine, errMsg, points := j.state, j.engine, j.errMsg, j.points
	locs := make([]task, 0, len(j.tasks)) // range/worker snapshots
	for _, t := range j.tasks {
		locs = append(locs, task{from: t.from, to: t.to, worker: t.worker, remote: t.remote})
	}
	d.mu.Unlock()

	switch state {
	case jobs.StateFailed:
		return nil, "", errors.New(errMsg) // served as a worker serves its own failure
	case jobs.StateCanceled:
		return nil, "", fmt.Errorf("%w: %q", jobs.ErrCanceled, id)
	case jobs.StateDone:
	default:
		return nil, "", fmt.Errorf("%w: %q is %s", jobs.ErrNotFinished, id, state)
	}
	if len(locs) == 0 {
		return nil, "", unreachable{fmt.Errorf("fleet: sweep %q finished before this dispatcher started; its range assignments were not retained — resubmit the sweep", id)}
	}
	merged, err := d.mergeRanges(ctx, id, points, locs)
	if err != nil {
		return nil, "", unreachable{err}
	}
	return merged, engine, nil
}

// mergeRanges fetches each range's sub-sweep result set from its worker
// and re-indexes the points to global grid indices.
func (d *Dispatcher) mergeRanges(ctx context.Context, id string, points int, locs []task) ([]SweepPointJSON, error) {
	merged := make([]SweepPointJSON, points)
	for _, loc := range locs {
		w := d.workerByName(loc.worker)
		if w == nil {
			return nil, fmt.Errorf("fleet: sweep %q range [%d,%d) belongs to unknown worker %q", id, loc.from, loc.to, loc.worker)
		}
		cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
		code, body, err := w.c.sweepResultRaw(cctx, loc.remote)
		cancel()
		if err != nil {
			return nil, err
		}
		if code != 200 {
			return nil, fmt.Errorf("fleet: %s: sweep result for range [%d,%d): %s", loc.worker, loc.from, loc.to, decodeErr(code, body))
		}
		var doc remoteSweepDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("fleet: %s: sweep result body: %w", loc.worker, err)
		}
		if len(doc.Results) != loc.to-loc.from {
			return nil, fmt.Errorf("fleet: %s answered %d results for range [%d,%d)", loc.worker, len(doc.Results), loc.from, loc.to)
		}
		for _, pt := range doc.Results {
			gi := loc.from + pt.Index
			if gi < 0 || gi >= points {
				return nil, fmt.Errorf("fleet: %s answered out-of-range point %d for range [%d,%d)", loc.worker, pt.Index, loc.from, loc.to)
			}
			pt.Index = gi
			merged[gi] = pt
		}
	}
	return merged, nil
}

// WaitTimeout blocks until the job is terminal or the duration elapses,
// then returns its snapshot — the long-poll primitive behind ?wait=.
// Non-positive durations degenerate to Status.
func (d *Dispatcher) WaitTimeout(id string, dur time.Duration) (Status, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", jobs.ErrNotFound, id)
	}
	if dur > 0 {
		t := time.NewTimer(dur)
		select {
		case <-j.done:
		case <-t.C:
		}
		t.Stop()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.statusLocked(j), nil
}
