package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// counters is one reading of the public counters of every server.
type counters struct {
	polls       uint64  // dispatcher status polls seen by the fleet workers
	submitted   float64 // worker submissions
	cacheHits   float64
	forwarded   float64
	reforwarded float64
	appendSum   float64 // seconds, all journals
	appendCount float64
	fsyncSum    float64
	fsyncCount  float64
}

// read scrapes /v1/stats and /metrics of every server and, on the
// fleet, the status reads counted at the workers' taps.
func read(sys *system) (counters, error) {
	var c counters
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	for _, s := range sys.all {
		if s.disp != nil {
			var doc struct {
				Dispatcher struct {
					Forwarded   float64 `json:"forwarded"`
					Reforwarded float64 `json:"reforwarded"`
				} `json:"dispatcher"`
			}
			if err := getJSON(hc, s.url+"/v1/stats", &doc); err != nil {
				return c, err
			}
			c.forwarded += doc.Dispatcher.Forwarded
			c.reforwarded += doc.Dispatcher.Reforwarded
		} else {
			var doc struct {
				Submitted float64 `json:"submitted"`
				CacheHits float64 `json:"cache_hits"`
			}
			if err := getJSON(hc, s.url+"/v1/stats", &doc); err != nil {
				return c, err
			}
			c.submitted += doc.Submitted
			c.cacheHits += doc.CacheHits
			if sys.disp != nil && s.tap != nil {
				c.polls += s.tap.polls.Load()
			}
		}
		fams, err := scrape(hc, s.url+"/metrics")
		if err != nil {
			return c, err
		}
		for _, f := range fams {
			switch f.Name {
			case "store_journal_append_seconds":
				c.appendSum, c.appendCount = addHistogram(c.appendSum, c.appendCount, f)
			case "store_journal_fsync_seconds":
				c.fsyncSum, c.fsyncCount = addHistogram(c.fsyncSum, c.fsyncCount, f)
			}
		}
	}
	return c, nil
}

// reforwarded is the dispatcher's re-forward count (0 on the node).
func reforwarded(sys *system) (float64, error) {
	if sys.disp == nil {
		return 0, nil
	}
	c, err := read(sys)
	return c.reforwarded, err
}

func scrape(hc *http.Client, url string) ([]obs.Family, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(string(body))
}

// addHistogram adds a histogram family's _sum and _count samples to sum
// and count.
func addHistogram(sum, count float64, f obs.Family) (float64, float64) {
	for _, s := range f.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_sum"):
			sum += s.Value
		case strings.HasSuffix(s.Name, "_count"):
			count += s.Value
		}
	}
	return sum, count
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// absent says why a per-layer metric has no reading on the workload, or
// "" when the workload's ops reach its layer. An absent metric reads 0.
func absent(w *workload, name string) string {
	layer, _, _ := strings.Cut(name, ".")
	switch {
	case layer == "anneal" && w.path != "anneal":
		return "the workload's ops take the gate path"
	case (layer == "sim" || layer == "transpile") && w.path == "anneal":
		return "the anneal path neither transpiles nor simulates"
	case strings.HasPrefix(name, "sim.bind") && w.path != "sweep":
		return "the workload's ops carry no parameters"
	case (layer == "fleet" || layer == "store") && w.system == "node":
		return "the node has no dispatcher and keeps no journal"
	}
	return ""
}

// traced is the --trace 1 run: a closed-loop phase with the taps off
// and one with them on, then the ladder; it reports the per-layer
// metrics and writes the spans out.
func traced(w *workload, cfg config, sys *system, r *runner, d time.Duration) (*report, error) {
	cStart, err := read(sys)
	if err != nil {
		return nil, err
	}
	plain := r.loop(d / 2)
	c0, err := read(sys)
	if err != nil {
		return nil, err
	}
	sys.spans.on.Store(true)
	r.trace = true
	loop := r.loop(d / 2)
	c1, err := read(sys)
	if err != nil {
		return nil, err
	}
	waits, done := workerJobs(r.c, sys, loop.finals)
	lad := newLadder(w, cfg.seed, sys)
	defer lad.close()
	if err := lad.run(); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	c2, err := read(sys)
	if err != nil {
		return nil, err
	}
	sys.spans.on.Store(false)

	ops := float64(len(loop.lat))
	m := map[string]metric{}
	add := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	for _, name := range []string{
		"bundle.decode_ms", "schemas.validate_ms", "jobs.cache_key_ms", "algolib.lower_ms", "transpile.transpile_ms",
		"sim.compile_ms", "sim.execute_ms", "sim.sample_ms", "sim.bind_ms", "anneal.sample_ms",
		"runtime.submit_ms", "runtime.self_ms", "jobs.pool_ms", "jobs.pool_self_ms", "jobs.http_ms", "jobs.http_self_ms",
		"jobs.fake_pool_ms", "jobs.fake_http_ms", "fleet.fake_http_ms", "fleet.http_ms", "fleet.self_ms",
	} {
		add(name, "ms", lad.median(name))
	}
	bytes := planeBytes(lad.kernels, lad.qubits)
	add("sim.kernels", "count", float64(lad.kernels))
	add("sim.bytes_mib", "MiB", bytes/(1<<20))
	add("sim.achieved_gbps", "GB/s", lad.median("sim.achieved_gbps"))
	add("sim.stream_gbps", "GB/s", lad.median("sim.stream_gbps"))
	add("sim.pct_peak", "%", 100*ratio(lad.median("sim.achieved_gbps"), lad.median("sim.stream_gbps")))
	add("sim.bind_fallbacks", "count", float64(lad.fallbacks))
	add("anneal.spin_updates_per_s", "1/s", lad.median("anneal.spin_updates_per_s"))
	add("jobs.queue_wait_ms", "ms", median(waits))
	add("jobs.cache_hit_ratio", "ratio", ratio(c1.cacheHits-c0.cacheHits, c1.submitted-c0.submitted))
	add("store.append_ms", "ms", 1e3*ratio(c2.appendSum-c0.appendSum, c2.appendCount-c0.appendCount))
	add("store.fsync_ms", "ms", 1e3*ratio(c2.fsyncSum-c0.fsyncSum, c2.fsyncCount-c0.fsyncCount))
	add("store.appends_per_op", "count", ratio(c1.appendCount-c0.appendCount, ops))
	add("fleet.worker_polls_per_op", "count", ratio(float64(c1.polls-c0.polls), ops))
	add("fleet.forwards_per_op", "count", ratio(c1.forwarded-c0.forwarded, ops))
	reforwards := c2.reforwarded - cStart.reforwarded
	add("fleet.reforwards", "count", reforwards)
	add("bench.trace_overhead_pct", "%", 100*(1-ratio(loop.opsPerSec(), plain.opsPerSec())))
	why := map[string]string{}
	for name := range m {
		if reason := absent(w, name); reason != "" {
			m[name] = metric{0, m[name].Unit}
			why[name] = reason
		}
	}

	spanFile := filepath.Join(cfg.root, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
	if err := sys.spans.write(spanFile); err != nil {
		return nil, err
	}
	attempted := plain.attempted + loop.attempted + lad.attempted
	failed := min(attempted, plain.failed+loop.failed+lad.failed+int(reforwards))
	rep := &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m, traced: loop}

	logf("untraced phase (taps off): %.3f ops/s; traced phase: %.3f ops/s", plain.opsPerSec(), loop.opsPerSec())
	summarize(loop)
	if reforwards > 0 {
		logf("the dispatcher re-forwarded %g jobs; each counts as failed", reforwards)
	}
	if lad.firstErr != nil {
		logf("first ladder failure: %v", lad.firstErr)
	}
	if len(done) > 0 {
		logf("worker jobs done after their submission at the worker: p10 %.1f, p50 %.1f, p90 %.1f, max %.1f ms (n=%d); the dispatcher polls each at 0, 100, 200, … ms after forwarding it",
			quantile(done, 0.1), quantile(done, 0.5), quantile(done, 0.9), quantile(done, 1), len(done))
	}
	logf("ladder (median of %d samples per rung; rung minus contained rungs = self):", ladderOps*ladderReps)
	printMetrics(rep, why)
	logf("spans: %s", spanFile)
	return rep, nil
}
