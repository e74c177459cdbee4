package fleet

import (
	"context"
	"net/http"

	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/qop"
)

// NewHandler exposes a Dispatcher on the same /v1 routes a worker serves
// (the table is at jobs.NewHandler), through the same handler, so
// clients cannot tell a fleet front-end from a single node. What differs
// behind the routes:
//
//   - status documents add the owning worker, its remote job ID, the
//     reforward count and, for sweeps, the per-range detail (ranges);
//   - GET /v1/jobs lists the dispatcher's own table, which is the
//     fleet-merged history;
//   - GET /v1/jobs/{id}/result relays the owning worker's document and
//     status code byte for byte;
//   - GET /v1/sweeps/{id} merges the ranges' result sets, re-indexed to
//     global grid indices;
//   - DELETE /v1/jobs/{id} forwards to the owning worker;
//   - GET /v1/engines is the union over healthy workers (503 when none
//     answers), and GET /v1/stats is {dispatcher, workers, fleet, build};
//   - a worker that cannot be reached (or answers something unusable)
//     surfaces as 502.
//
// POST /v1/jobs?shards=N forwards the pin to whichever worker runs the
// job, and POST /v1/sweeps?shards=N to every worker running one of the
// sweep's ranges. Submissions are accepted as long as the dispatcher is
// up — if no worker is reachable the job queues (durably, when
// journaled) until the fleet returns.
func NewHandler(d *Dispatcher) http.Handler {
	return jobs.NewServiceHandler(service{d}, qop.ValidateOptions{AllowMidCircuit: d.opts.AllowMidCircuit}, d.log)
}

// service adapts a Dispatcher to jobs.Service; the Dispatcher's own
// WaitTimeout, List, Result, Cancel, Engines and Metrics already fit.
type service struct{ *Dispatcher }

func (s service) Accept(b *bundle.Bundle, o jobs.SubmitOptions, sweep bool) (Status, error) {
	return s.accept(b, o.Shards, o.TraceID, o.Profile, sweep)
}

func (s service) SweepPoints(ctx context.Context, id string) ([]jobs.SweepPoint, error) {
	points, _, err := s.SweepResult(ctx, id)
	return points, err
}

func (s service) StatsDoc() any {
	return map[string]any{
		"dispatcher": s.Stats(),
		"workers":    s.WorkerInfos(),
		"fleet":      s.FleetStats(),
		"build":      obs.Build(),
	}
}
