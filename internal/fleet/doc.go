// Package fleet is the serving layer's horizontal scale-out subsystem: a
// dispatcher that fronts N worker qmlserve nodes over the same /v1 HTTP
// protocol the workers themselves speak. Workers need zero changes to
// join a fleet — the dispatcher is just another /v1 client — and clients
// need zero changes to use one: POST /v1/jobs, GET status/result, DELETE
// cancel, /v1/jobs history and /v1/stats all behave as on a single node,
// with the fleet behind them. They are served by the very handler a
// worker runs: NewHandler plugs the Dispatcher into
// jobs.NewServiceHandler as a jobs.Service, and a dispatched job's Status
// is a jobs.Status with the fleet-only fields (worker, remote ID,
// reforwards, sweep ranges) filled in, so both tiers share one status
// document and one error→status table. The only status a worker never
// serves is 502: the worker owning a job could not be reached.
//
// # Routing
//
// Submissions are routed load-aware with cache-key affinity. A
// consistent-hash ring (virtual nodes per worker) maps each submission's
// content address — the same canonical bundle+shots+seed key the result
// caches use — to a preferred worker, so identical bundles land on the
// node that already holds the result in its cache and duplicates of a
// running job coalesce in that worker's pool. The affinity choice yields
// to load only when that worker is carrying AffinitySlack more
// outstanding dispatched jobs than the least-loaded node, in which case
// the least-loaded healthy worker takes the job (Stats.AffinitySpills).
// While a job with some key is in flight through the dispatcher, later
// duplicates are pinned to its worker even if the ring has shifted, so
// dispatcher-level coalescing survives ejects and readmissions.
//
// # Tasks
//
// A dispatched job is a set of remote tasks, and one state machine
// (runTask) moves every task through assign → poll → re-forward →
// terminal: the worker is polled once right after each forward and then
// every PollInterval, and ReforwardAfter consecutive poll failures (or a
// worker that forgot the task) detach the task and forward it elsewhere.
// A plain job is a one-task job whose task carries the whole bundle to
// POST /v1/jobs. A sweep scatters its grid into one task per healthy
// worker, each a contiguous range POSTed to POST /v1/sweeps as an
// independent sub-sweep, so a lost worker re-runs only its own ranges.
// One job-level fold turns task outcomes into the job's state, journal
// events, spans and per-worker outstanding counts; statusLocked folds the
// tasks into the job's one status snapshot (a sweep's ranges become
// Status.Ranges). Three decisions stay kind-specific:
//
//   - routing: a plain job follows coalescing, affinity and the slack
//     rule; a range goes to its scatter-time worker, else the least
//     loaded;
//   - an out-of-band cancel on the worker cancels a plain job, but fails
//     a sweep with an error naming the lost range;
//   - Cancel forwards DELETE to a plain job's worker and chases re-forwards,
//     while a sweep cancels locally and then cancels its live ranges
//     best-effort.
//
// # Health
//
// A prober polls every worker's /v1/stats on ProbeInterval. EjectAfter
// consecutive failures mark the worker unhealthy — it leaves the routing
// ring (its keys rehash to the surviving nodes, which is the consistent
// hash's minimal-movement rehash) but keeps being probed, and a single
// success readmits it. Every dispatcher→worker HTTP call carries both a
// context deadline and a hard client timeout (RequestTimeout), so a hung
// worker can stall at most one request, never wedge a dispatcher
// goroutine forever.
//
// # Durability
//
// With a Store attached, the dispatcher journals every accepted job
// through internal/jobs/store exactly as a worker pool does — submitted
// (with the canonical bundle), assigned (worker + remote job ID,
// re-appended on every re-forward), started, done/failed/canceled — by
// default under the store's group-commit fsync policy so concurrent
// submissions share fsync barriers. A job whose worker dies mid-run is
// re-forwarded to another node and re-runs there; execution is
// deterministic in the cache key, so the re-run's counts are identical
// to what the lost run would have produced (at-least-once forwarding —
// a network-partitioned worker may also finish the original run, which
// is harmless for the same reason). After a dispatcher crash, New
// replays the journal: terminal jobs answer status again (results are
// proxied from the worker that holds them), and non-terminal jobs are
// re-attached — the dispatcher re-polls the assigned worker for their
// in-flight state, and re-forwards any the fleet no longer knows.
//
// cmd/qmlserve exposes all of this as `-dispatch worker1,worker2,...`,
// so one binary serves both roles.
package fleet
