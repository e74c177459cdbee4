// Command perfbench is the middle layer's end-to-end benchmark. It
// starts the system in-process from its public constructors, wired the
// way cmd/qmlserve wires them, drives one workload as closed loops,
// checks every answer, and prints the metrics as one JSON object on the
// last line of standard output. A human-readable report goes to
// standard error.
//
//	bash perfbench/run.sh --workload maxcut-qaoa --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead: a closed-loop
// phase with the span recorders off and one with them on (the overhead
// is the difference), then a ladder of timed calls into each layer's
// public functions, with counters read from the public /v1/stats and
// /metrics endpoints. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A run sets the system up at least minSetups times and until setupTime
// has passed (at most maxSetups times), and reports the median: a cheap
// set-up is repeated often enough that its median is steady.
const (
	minSetups = 3
	maxSetups = 50
	setupTime = time.Second
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // the directory scratch data and span logs go under
	// corrupt rewrites fetched result documents (self-test only).
	corrupt func([]byte) []byte
	// setups, when positive, fixes the number of set-ups (self-test only).
	setups int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	traced    *loopResult       // the traced phase of a --trace 1 run (self-test only)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.root = filepath.Join(wd, ".bench_build")
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run sets up, measures and tears down one workload run.
func run(cfg config) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fp := fingerprint()
	logf("perfbench %s seed=%d seconds=%g trace=%v", w.name, cfg.seed, cfg.seconds, cfg.trace)
	logf("machine: %s", fp)
	logf("working set: %d B (%s); L2 %s, L3 %s", w.workingSet, w.why, fp.l2, fp.l3)

	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
		registerFake()
	}
	var sys *system
	var refs map[int]string
	var setups []float64
	begin := time.Now()
	enough := func(k int) bool {
		if cfg.setups > 0 {
			return k == cfg.setups
		}
		return k == maxSetups || k >= minSetups && time.Since(begin) >= setupTime
	}
	for k := 0; !enough(k); k++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		sys, refs, err = setup(w, cfg, filepath.Join(dir, fmt.Sprint(k)), spans)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sys.close()

	base := sys.base()
	// Warm-up on a separate seed stream: connections open, lazy set-up
	// finishes, and no op of the measured stream is cached by it.
	warm := newRunner(w, mix(cfg.seed, 0xfeed), base, nil, sys)
	for i := 0; i < 2*w.clients; i++ {
		if _, _, err := warm.op(i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	warm.c.close()

	r := newRunner(w, cfg.seed, base, refs, sys)
	r.c.corrupt = cfg.corrupt
	defer r.c.close()
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return traced(w, cfg, sys, r, d)
	}
	ref0, err := reforwarded(sys)
	if err != nil {
		return nil, err
	}
	res := r.loop(d)
	ref1, err := reforwarded(sys)
	if err != nil {
		return nil, err
	}
	res.countReforwards(ref1 - ref0)
	rep := &report{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"latency_p50_ms": {pct(res, 0.5), "ms"},
			"ops_per_s":      {res.opsPerSec(), "1/s"},
			"cpu_ms_per_op":  {res.cpuPerOp(), "ms"},
			"peak_rss_mib":   {res.rss, "MiB"},
		},
	}
	logf("setup_s: median %.4f of %d set-ups", median(setups), len(setups))
	summarize(res)
	printMetrics(rep, nil)
	return rep, nil
}

func pct(r *loopResult, p float64) float64 {
	v, _ := r.percentile(p)
	return v
}

// summarize prints the loop's percentiles with their sample counts, the
// failure fraction and the results digest.
func summarize(res *loopResult) {
	n := len(res.lat)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		v, ok := res.percentile(p)
		if ok {
			logf("latency p%g: %.3f ms (n=%d)", p*100, v, n)
		} else {
			logf("latency p%g: unsupported (n=%d; fewer than 10 samples beyond it)", p*100, n)
		}
	}
	var dec []float64
	for k := 1; k <= 9; k++ {
		dec = append(dec, quantile(res.lat, float64(k)/10))
	}
	logf("latency deciles p10..p90: %.1f ms", dec)
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	logf("failed_frac: %g (%d of %d)", frac, res.failed, res.attempted)
	if res.firstErr != nil {
		logf("first failure: %v", res.firstErr)
	}
	rates, cpus := res.slices()
	logf("per slice of ops: ops/s %.3f, cpu ms/op %.3f", rates, cpus)
	logf("results digest: %s", res.digest)
}

// printMetrics lists the report's metrics; a metric in absent is shown
// with the reason it has no reading.
func printMetrics(rep *report, absent map[string]string) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		if why, ok := absent[n]; ok {
			logf("  %-28s %14s (%s)", n, "absent", why)
		} else {
			logf("  %-28s %14.4f %s", n, m.Value, m.Unit)
		}
	}
}

// setup starts the system, waits for the dispatcher to admit its
// workers, and computes the reference outcomes of the leading ops
// in-process.
func setup(w *workload, cfg config, dir string, spans *spanLog) (*system, map[int]string, error) {
	sys, err := startSystem(dir, w.system == "fleet", spans)
	if err != nil {
		return nil, nil, err
	}
	refs := map[int]string{}
	for i := 0; i < w.refs; i++ {
		in, err := w.make(cfg.seed, i)
		if err != nil {
			sys.close()
			return nil, nil, err
		}
		pts, err := reference(in)
		if err == nil {
			err = check(in, pts)
		}
		if err != nil {
			sys.close()
			return nil, nil, fmt.Errorf("reference op %d: %w", i, err)
		}
		refs[in.base] = digest(pts)
	}
	return sys, refs, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
