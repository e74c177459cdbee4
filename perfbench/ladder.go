package main

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// Ladder size: every rung is timed on ladderOps seeded ops, ladderReps
// times each, and reported as the median.
const (
	ladderOps  = 3
	ladderReps = 3
)

// ladder times one call into each layer's public entry point, rung by
// rung from bundle.FromJSON up to the dispatcher round trip. A layer's
// self time is its rung minus the rungs it contains. Only the rungs the
// workload's own ops reach are timed.
type ladder struct {
	w      *workload
	seed   uint64
	sys    *system
	c      *client
	pool   *jobs.Pool
	shards int // the ops' shards: the workload's pin, else the pool's grant

	samples map[string][]float64

	attempted, failed int
	firstErr          error

	kernels, qubits int
	fallbacks       uint64
}

func newLadder(w *workload, seed uint64, sys *system) *ladder {
	return &ladder{
		w: w, seed: seed, sys: sys, c: newClient(),
		pool:    jobs.NewPool(jobs.Options{Logger: obs.NewLogger("text", io.Discard), Metrics: newRegistry()}),
		samples: map[string][]float64{},
	}
}

func (l *ladder) close() {
	l.pool.Close()
	l.c.close()
}

func (l *ladder) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *ladder) median(name string) float64 { return median(l.samples[name]) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func timeMS(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start).Nanoseconds()) / 1e6, err
}

// run times every rung on every ladder sample.
func (l *ladder) run() error {
	for k := 0; k < ladderOps; k++ {
		in, err := l.w.make(l.seed, 1<<20+k)
		if err != nil {
			return err
		}
		for rep := 0; rep < ladderReps; rep++ {
			if err := l.sample(in, k, rep); err != nil {
				return err
			}
		}
	}
	l.stream()
	return nil
}

// fresh re-seeds an input per rung so no rung is served from a cache
// an earlier rung filled.
func (l *ladder) fresh(in *opInput, rung, k, rep int) (*opInput, error) {
	ctx := in.bundle.Context.Clone()
	ctx.Exec.Seed = execSeed(l.seed, k*100+rep, uint64(1000+rung))
	b := in.bundle.WithContext(ctx)
	body, err := b.Marshal()
	if err != nil {
		return nil, err
	}
	cp := *in
	cp.bundle, cp.body = b, body
	return &cp, nil
}

func (l *ladder) sample(in *opInput, k, rep int) error {
	x, err := l.fresh(in, 0, k, rep)
	if err != nil {
		return err
	}
	l.shards = cmp.Or(x.shards, runtime.GOMAXPROCS(0))
	var b *bundle.Bundle
	decode, err := timeMS(func() (e error) { b, e = bundle.FromJSON(x.body, qop.ValidateOptions{}); return })
	if err != nil {
		return err
	}
	validate, err := timeMS(b.ValidateAgainstSchemas)
	if err != nil {
		return err
	}
	key, err := timeMS(func() (e error) { _, e = jobs.CacheKey(b); return })
	if err != nil {
		return err
	}
	l.add("bundle.decode_ms", decode)
	l.add("schemas.validate_ms", validate)
	l.add("jobs.cache_key_ms", key)

	// The engine rungs runtime.Submit contains, summed for its self time.
	var inner float64
	switch {
	case b.Context.Anneal != nil:
		lower, samp, err := l.annealRungs(b)
		if err != nil {
			return err
		}
		inner = validate + lower + samp
	case x.points > 0:
		lower, trans, compile, perPoint, err := l.sweepRungs(b)
		if err != nil {
			return err
		}
		inner = validate + lower + trans + compile + float64(x.points)*perPoint
	default:
		lower, trans, run, err := l.gateRungs(b)
		if err != nil {
			return err
		}
		inner = validate + lower + trans + run
	}
	submit, err := timeMS(func() (e error) { _, e = reference(x); return })
	if err != nil {
		return err
	}
	l.add("runtime.submit_ms", submit)
	l.add("runtime.self_ms", submit-inner)

	// Serving rungs: in-process pool, worker HTTP and, on the fleet,
	// dispatcher HTTP.
	pool, http, fleet, err := l.servingRungs(in, k, rep)
	if err != nil {
		return err
	}
	l.add("jobs.pool_ms", pool)
	l.add("jobs.pool_self_ms", pool-submit)
	l.add("jobs.http_ms", http)
	l.add("jobs.http_self_ms", http-pool)
	if l.sys.disp != nil {
		l.add("fleet.http_ms", fleet)
		l.add("fleet.self_ms", fleet-http)
	}

	// The serving-only rung: a near-instant engine at the same serving
	// layers.
	fake, err := fakeOp(execSeed(l.seed, k*100+rep, 2000))
	if err != nil {
		return err
	}
	pool, http, fleet, err = l.servingRungs(fake, k, rep)
	if err != nil {
		return err
	}
	l.add("jobs.fake_pool_ms", pool)
	l.add("jobs.fake_http_ms", http)
	if l.sys.disp != nil {
		l.add("fleet.fake_http_ms", fleet)
	}
	return nil
}

// servingRungs times one fresh copy of the op at each serving layer of
// the workload's system and checks every answer; a wrong or failed
// answer counts as failed. The fleet rung reads 0 on the node.
func (l *ladder) servingRungs(in *opInput, k, rep int) (pool, http, fleet float64, err error) {
	rungs := []func(*opInput) ([]point, error){
		l.poolRun,
		func(x *opInput) ([]point, error) {
			p, _, e := l.c.do(l.sys.workers[0].url, x, fmt.Sprintf("ladder-%d-%d-worker", k, rep))
			return p, e
		},
	}
	if l.sys.disp != nil {
		rungs = append(rungs, func(x *opInput) ([]point, error) {
			p, _, e := l.c.do(l.sys.disp.url, x, fmt.Sprintf("ladder-%d-%d-fleet", k, rep))
			return p, e
		})
	}
	var out [3]float64
	for i, rung := range rungs {
		x, err := l.fresh(in, 10+i, k, rep)
		if err != nil {
			return 0, 0, 0, err
		}
		var pts []point
		ms, err := timeMS(func() (e error) { pts, e = rung(x); return })
		if err == nil {
			err = check(x, pts)
		}
		l.attempted++
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = err
			}
		}
		out[i] = ms
	}
	return out[0], out[1], out[2], nil
}

// poolRun is the in-process pool rung: Submit, WaitTimeout, Result.
func (l *ladder) poolRun(in *opInput) ([]point, error) {
	if in.points > 0 {
		id, err := l.pool.SubmitSweep(in.bundle)
		if err != nil {
			return nil, err
		}
		if _, err := l.pool.WaitTimeout(id, opTimeout); err != nil {
			return nil, err
		}
		res, err := l.pool.SweepResult(id)
		if err != nil {
			return nil, err
		}
		pts := make([]point, len(res))
		for i, r := range res {
			pts[i] = fromResult(i, r)
		}
		return pts, nil
	}
	id, err := l.pool.SubmitWith(in.bundle, jobs.SubmitOptions{Shards: in.shards})
	if err != nil {
		return nil, err
	}
	if _, err := l.pool.WaitTimeout(id, opTimeout); err != nil {
		return nil, err
	}
	res, err := l.pool.Result(id)
	if err != nil {
		return nil, err
	}
	return []point{fromResult(0, res)}, nil
}

func registers(b *bundle.Bundle) algolib.Registers {
	regs := algolib.Registers{}
	for _, d := range b.QDTs {
		regs[d.ID] = d
	}
	return regs
}

// gateRungs times lower, transpile and the sim rungs of a concrete gate
// bundle.
func (l *ladder) gateRungs(b *bundle.Bundle) (lower, trans, run float64, err error) {
	var low *algolib.Lowered
	lower, err = timeMS(func() (e error) { low, e = algolib.Lower(b.Operators, registers(b)); return })
	if err != nil {
		return
	}
	var tr *transpile.Result
	trans, err = timeMS(func() (e error) { tr, e = transpile.Transpile(low.Circuit, transpile.FromContext(b.Context)); return })
	if err != nil {
		return
	}
	l.add("algolib.lower_ms", lower)
	l.add("transpile.transpile_ms", trans)
	_, run, err = l.simRungs(tr.Circuit, b.Context.Exec.Samples, b.Context.Exec.Seed)
	return
}

// simRungs times sim.Compile, Plan.Execute at the ops' shard count and
// sim.Run on a concrete circuit; sampling is Run minus the other two.
func (l *ladder) simRungs(c *circuit.Circuit, shots int, seed uint64) (compile, run float64, err error) {
	var pl *sim.Plan
	compile, err = timeMS(func() (e error) { pl, e = sim.Compile(c); return })
	if err != nil {
		return 0, 0, err
	}
	st, err := sim.NewState(c.NumQubits)
	if err != nil {
		return 0, 0, err
	}
	exec, err := timeMS(func() error { return pl.Execute(st, l.shards) })
	if err != nil {
		return 0, 0, err
	}
	st = nil // let Run's own state reuse the memory
	run, err = timeMS(func() (e error) { _, e = sim.Run(c, sim.Options{Shots: shots, Seed: seed, Shards: l.shards}); return })
	if err != nil {
		return 0, 0, err
	}
	l.kernels, l.qubits = pl.Stats().Kernels, c.NumQubits
	l.add("sim.compile_ms", compile)
	l.add("sim.execute_ms", exec)
	l.add("sim.sample_ms", run-compile-exec)
	l.add("sim.achieved_gbps", planeBytes(l.kernels, l.qubits)/(exec/1e3)/1e9)
	return compile, run, nil
}

// planeBytes is the computed traffic of a plan: every kernel reads and
// writes both 8-byte planes of the 2^n-amplitude state once.
func planeBytes(kernels, n int) float64 {
	return float64(kernels) * 2 * 2 * float64(int64(1)<<n) * 8
}

// sweepRungs times the sweep's own path: LowerParametric,
// TranspileParametric, CompileParametric and one Bind per grid point,
// then the sim rungs on point 0's concrete circuit. It returns the
// per-point engine time (bind + execute + sample) for runtime self time.
func (l *ladder) sweepRungs(b *bundle.Bundle) (lower, trans, compile, perPoint float64, err error) {
	sw := b.Context.Sweep
	var low *algolib.Lowered
	lower, err = timeMS(func() (e error) { low, e = algolib.LowerParametric(b.Operators, registers(b), sw.Params); return })
	if err != nil {
		return
	}
	var tr *transpile.Result
	trans, err = timeMS(func() (e error) {
		var ok bool
		tr, ok, e = transpile.TranspileParametric(low.Circuit, transpile.FromContext(b.Context))
		if e == nil && !ok {
			e = fmt.Errorf("sweep template is outside the parametric transpile subset")
		}
		return
	})
	if err != nil {
		return
	}
	var bind float64
	compile, bind, err = l.bindRungs(tr.Circuit, sw.Points)
	if err != nil {
		return
	}
	l.add("algolib.lower_ms", lower)
	l.add("transpile.transpile_ms", trans)
	concrete, err := tr.Circuit.BindValues(sw.Points[0])
	if err != nil {
		return
	}
	concreteCompile, run, err := l.simRungs(concrete, b.Context.Exec.Samples, b.Context.Exec.Seed)
	if err != nil {
		return
	}
	perPoint = bind + run - concreteCompile
	return
}

// bindRungs compiles a symbolic circuit once and binds every point.
func (l *ladder) bindRungs(c *circuit.Circuit, points [][]float64) (compile, perBind float64, err error) {
	var pp *sim.ParamPlan
	compile, err = timeMS(func() (e error) { pp, e = sim.CompileParametric(c); return })
	if err != nil {
		return
	}
	total, err := timeMS(func() error {
		for _, pt := range points {
			if _, e := pp.Bind(pt); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return
	}
	perBind = total / float64(len(points))
	_, fallbacks := pp.Binds()
	l.fallbacks += fallbacks
	l.add("sim.bind_ms", perBind)
	return
}

// annealRungs times the anneal path's lowering (IsingModelFromOp) and
// anneal.SampleModel with the bundle's model, reads and seed.
func (l *ladder) annealRungs(b *bundle.Bundle) (lower, samp float64, err error) {
	var op *qop.Operator
	for _, o := range b.Operators {
		if o.RepKind == qop.IsingProblem {
			op = o
		}
	}
	if op == nil {
		return 0, 0, fmt.Errorf("anneal bundle has no ISING_PROBLEM")
	}
	reg, err := b.QDT(op.DomainQDT)
	if err != nil {
		return 0, 0, err
	}
	var model *ising.Model
	lower, err = timeMS(func() (e error) { model, e = algolib.IsingModelFromOp(op, reg.Width); return })
	if err != nil {
		return 0, 0, err
	}
	cfg := b.Context.Anneal
	p := anneal.Params{NumReads: cfg.NumReads, Sweeps: cfg.Sweeps, BetaMin: cfg.BetaMin, BetaMax: cfg.BetaMax, Schedule: cfg.Schedule, Seed: b.Context.Exec.Seed}
	samp, err = timeMS(func() (e error) { _, e = anneal.SampleModel(model, p); return })
	if err != nil {
		return 0, 0, err
	}
	sweeps := cfg.Sweeps
	if sweeps == 0 {
		sweeps = anneal.DefaultSweeps
	}
	l.add("algolib.lower_ms", lower)
	l.add("anneal.sample_ms", samp)
	l.add("anneal.spin_updates_per_s", float64(cfg.NumReads)*float64(sweeps)*float64(reg.Width)/(samp/1e3))
	return lower, samp, nil
}

// stream measures the machine's streaming bandwidth over planes the
// size of the last simulated state: the same number of passes as the
// plan has kernels, each pass a rotate that reads and writes both
// planes once, split across the ops' shard count.
func (l *ladder) stream() {
	if l.kernels == 0 {
		return
	}
	dim := 1 << l.qubits
	re, im := make([]float64, dim), make([]float64, dim)
	for i := range re {
		re[i], im[i] = 1/float64(i+1), 0.5
	}
	const c, s = 0.6, 0.8
	pass := func() {
		var wg sync.WaitGroup
		chunk := (dim + l.shards - 1) / l.shards
		for lo := 0; lo < dim; lo += chunk {
			wg.Add(1)
			go func(r, m []float64) {
				defer wg.Done()
				m = m[:len(r)]
				for i := range r {
					x, y := r[i], m[i]
					r[i], m[i] = c*x-s*y, s*x+c*y
				}
			}(re[lo:min(lo+chunk, dim)], im[lo:min(lo+chunk, dim)])
		}
		wg.Wait()
	}
	for rep := 0; rep < ladderReps; rep++ {
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < 50*time.Millisecond {
			for k := 0; k < l.kernels; k++ {
				pass()
			}
			n++
		}
		l.add("sim.stream_gbps", float64(n)*planeBytes(l.kernels, l.qubits)/time.Since(start).Seconds()/1e9)
	}
}

// fakeEngine is a near-instant backend: it separates pure serving cost
// (HTTP, queue, journal, dispatcher polls) from engine time.
type fakeEngine struct{}

const fakeEngineName = "bench.fake"

func (fakeEngine) Name() string { return fakeEngineName }

func (fakeEngine) Execute(b *bundle.Bundle) (*result.Result, error) {
	shots := b.Context.Exec.Samples
	return &result.Result{Engine: fakeEngineName, Samples: shots, Entries: []result.Entry{{Bitstring: "0000", Count: shots}}}, nil
}

func registerFake() {
	backend.Register(fakeEngineName, func() backend.Backend { return fakeEngine{} })
}

// fakeOp is a §5-shaped bundle addressed to the fake engine.
func fakeOp(seed uint64) (*opInput, error) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{paperGamma}, []float64{paperBeta})
	if err != nil {
		return nil, err
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate(fakeEngineName, 64, seed))
	if err != nil {
		return nil, err
	}
	return newOp(0, b, 64)
}
