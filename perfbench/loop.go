package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// loopResult is one closed-loop phase: every op attempted, the latency
// of each op that completed and checked, and the process CPU it cost.
type loopResult struct {
	lat       []float64 // ms, checked ops only
	done      []mark    // completion of each checked op, in order
	rss       float64   // MiB, peak RSS when the workload's rssOps-th op was checked
	attempted int
	failed    int
	firstErr  error
	finals    []statusDoc // each checked op's final status, traced phases only
	digest    string      // over the reference ops' served outcomes
}

// mark is the loop's clock and the process CPU time when an op was
// checked.
type mark struct{ at, cpu time.Duration }

// rateSlices is how many consecutive slices of equal op count the
// throughput and CPU figures are the median over: a burst of load from
// elsewhere on the host moves one slice, not the reported figure.
const rateSlices = 5

// slices returns, per slice of consecutive checked ops, the ops per
// second and the CPU milliseconds per op.
func (r *loopResult) slices() (rates, cpus []float64) {
	n := len(r.done)
	k := rateSlices
	if n < k {
		k = 1
	}
	var prev mark
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		if hi == lo {
			continue
		}
		last := r.done[hi-1]
		ops := float64(hi - lo)
		rates = append(rates, ops/(last.at-prev.at).Seconds())
		cpus = append(cpus, float64(last.cpu-prev.cpu)/float64(time.Millisecond)/ops)
		prev = last
	}
	return rates, cpus
}

// opsPerSec is the median over slices of checked ops per second.
func (r *loopResult) opsPerSec() float64 {
	rates, _ := r.slices()
	return median(rates)
}

// cpuPerOp is the median over slices of process CPU milliseconds per
// checked op.
func (r *loopResult) cpuPerOp() float64 {
	_, cpus := r.slices()
	return median(cpus)
}

// percentile returns the nearest-rank p-quantile of the latencies and
// whether at least ten samples lie beyond it (else it is unsupported).
func (r *loopResult) percentile(p float64) (float64, bool) {
	n := len(r.lat)
	return quantile(r.lat, p), n-1-rank(n, p) >= 10
}

// quantile is the nearest-rank p-quantile of xs (0 when xs is empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

func rank(n int, p float64) int {
	return max(0, min(int(math.Ceil(p*float64(n)))-1, n-1))
}

// runner drives one workload's ops: op indices come from a shared
// counter, so op i's input is the same whichever client takes it.
type runner struct {
	w     *workload
	seed  uint64
	base  string // the URL clients talk to
	c     *client
	refs  map[int]string // op index → digest of the in-process reference
	next  atomic.Int64
	mu    sync.Mutex
	seen  map[int]string // fresh op index → digest of its served outcome
	trace bool
	sys   *system
}

func newRunner(w *workload, seed uint64, base string, refs map[int]string, sys *system) *runner {
	return &runner{w: w, seed: seed, base: base, c: newClient(), refs: refs, seen: map[int]string{}, sys: sys}
}

// loop runs the workload's clients as closed loops for d: each client
// starts its next op only after the previous one is checked, and starts
// none after d has passed.
func (r *runner) loop(d time.Duration) *loopResult {
	res := &loopResult{}
	var mu sync.Mutex
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < r.w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(r.next.Add(1) - 1)
				lat, st, err := r.op(i)
				mu.Lock()
				if err == nil {
					res.done = append(res.done, mark{time.Since(start), cpuTime() - cpu0})
					if len(res.done) == r.w.rssOps {
						res.rss = peakRSSMiB()
					}
				}
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.lat = append(res.lat, lat)
					if r.trace {
						res.finals = append(res.finals, st)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if res.rss == 0 {
		res.rss = peakRSSMiB()
		logf("peak RSS read at the end: fewer than %d ops were checked", r.w.rssOps)
	}
	res.digest = r.digest()
	return res
}

// countReforwards counts each job the dispatcher re-forwarded during
// the loop as a failed op (at most every op attempted): no worker dies
// in a run, so a re-forward means the fleet lost track of a job.
func (res *loopResult) countReforwards(n float64) {
	if n <= 0 {
		return
	}
	res.failed = min(res.attempted, res.failed+int(n))
	if res.firstErr == nil {
		res.firstErr = fmt.Errorf("the dispatcher re-forwarded %g jobs", n)
	}
}

// op runs and checks op i, returning its latency in ms (POST to checked
// result) and its final status document.
func (r *runner) op(i int) (float64, statusDoc, error) {
	in, err := r.w.make(r.seed, i)
	if err != nil {
		return 0, statusDoc{}, err
	}
	trace := fmt.Sprintf("op-%x-%d", r.seed, i)
	start := time.Now()
	pts, st, err := r.c.do(r.base, in, trace)
	if err == nil {
		err = r.verify(in, pts)
	}
	lat := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return 0, st, err
	}
	if r.trace {
		r.sys.spans.add(trace, "client", "op", "", start, start.Add(time.Duration(lat*1e6)))
	}
	return lat, st, nil
}

// verify checks an outcome's invariants, its bit-identity with the
// in-process reference for reference ops, and for a repeated submission
// its bit-identity with the first serving of that input.
func (r *runner) verify(in *opInput, pts []point) error {
	if err := check(in, pts); err != nil {
		return err
	}
	d := digest(pts)
	if want, ok := r.refs[in.base]; ok && d != want {
		return fmt.Errorf("op %d: outcome differs from the in-process reference", in.index)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if first, ok := r.seen[in.base]; ok && first != d {
		return fmt.Errorf("op %d: repeat of op %d served a different outcome", in.index, in.base)
	}
	if in.base == in.index || r.seen[in.base] == "" {
		r.seen[in.base] = d
	}
	return nil
}

// digest hashes the served outcomes of the reference ops, in op order,
// so two commits can be compared for bit-identity.
func (r *runner) digest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := sha256.New()
	for i := 0; i < r.w.refs; i++ {
		fmt.Fprintf(h, "%d:%s\n", i, r.seen[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// workerJobs reads, after a traced phase, the status span log of every
// worker job that served its ops: the queued→started waits, and the
// time from each job's submission at its worker to done. Reading them
// only after the phase keeps these requests out of the phase's request
// counts and its throughput.
func workerJobs(c *client, sys *system, finals []statusDoc) (waits, done []float64) {
	for _, st := range finals {
		if sys.disp == nil {
			waits = append(waits, spanWaits(st.Spans)...)
			continue
		}
		type remote struct{ worker, id string }
		jobs := []remote{{st.Worker, st.Remote}}
		if st.Worker == "" {
			// A sweep: one worker job per scattered range.
			var doc struct {
				Ranges []struct {
					Worker string `json:"worker"`
					Remote string `json:"remote"`
				} `json:"ranges"`
			}
			jobs = nil
			if getJSON(c.hc, sys.disp.url+"/v1/jobs/"+st.ID, &doc) == nil {
				for _, rg := range doc.Ranges {
					jobs = append(jobs, remote{rg.Worker, rg.Remote})
				}
			}
		}
		for _, j := range jobs {
			if j.worker == "" || j.id == "" {
				continue
			}
			ws, err := c.status(j.worker, j.id)
			if err != nil || len(ws.Spans) == 0 {
				continue
			}
			waits = append(waits, spanWaits(ws.Spans)...)
			last := ws.Spans[len(ws.Spans)-1]
			if last.Stage == "done" {
				done = append(done, float64(last.At.Sub(ws.Spans[0].At).Nanoseconds())/1e6)
			}
		}
	}
	return waits, done
}

// spanWaits picks the queue wait out of a job's lifecycle spans: the
// "started" span's duration is queued→started.
func spanWaits(spans []obs.Span) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Stage == "started" {
			out = append(out, float64(sp.DurNs)/1e6)
		}
	}
	return out
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
