package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/obs"
)

// server is one in-process qmlserve: a worker (pool) or a dispatcher,
// each with its own registry the way a separate process would have.
type server struct {
	name   string
	url    string
	srv    *http.Server
	served chan struct{} // closed when the Serve goroutine returns
	pool   *jobs.Pool
	disp   *fleet.Dispatcher
	st     *store.Store
	tap    *tap
}

// system is what a workload runs against: the node (one in-memory
// worker, no dispatcher) or the fleet (a journaled dispatcher in front
// of two journaled workers).
type system struct {
	workers []*server
	disp    *server // nil on the node
	spans   *spanLog
	all     []*server
}

// base is the URL the workload's clients talk to.
func (sys *system) base() string {
	if sys.disp != nil {
		return sys.disp.url
	}
	return sys.workers[0].url
}

// wiring mirrors cmd/qmlserve's defaults: text logs (dropped here), one
// registry per process with runtime and build-info gauges, fsync
// "always" on workers and "group" on the dispatcher.
func newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	obs.RegisterBuildInfo(reg)
	return reg
}

func openStore(dir, policy string, reg *obs.Registry) (*store.Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, err := store.ParseSyncPolicy(policy)
	if err != nil {
		return nil, err
	}
	return store.Open(dir, store.Options{Sync: p, Metrics: reg})
}

func serve(s *server, h http.Handler, spans *spanLog, parent string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if spans != nil {
		s.tap = &tap{service: s.name, parent: parent, spans: spans, next: h}
		h = s.tap
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	return nil
}

// startWorker is `qmlserve` (with -data-dir when dir is non-empty).
func startWorker(name, dir string, spans *spanLog, parent string) (*server, error) {
	reg := newRegistry()
	s := &server{name: name}
	if dir != "" {
		st, err := openStore(dir, "always", reg)
		if err != nil {
			return nil, err
		}
		s.st = st
	}
	s.pool = jobs.NewPool(jobs.Options{Store: s.st, Logger: obs.NewLogger("text", io.Discard), Metrics: reg})
	if err := serve(s, jobs.NewHandler(s.pool), spans, parent); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startDispatcher is `qmlserve -dispatch w1,w2 -data-dir dir`.
func startDispatcher(dir string, workers []*server, spans *spanLog) (*server, error) {
	reg := newRegistry()
	st, err := openStore(dir, "group", reg)
	if err != nil {
		return nil, err
	}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.url
	}
	s := &server{name: "dispatcher", st: st}
	s.disp, err = fleet.New(fleet.Options{Workers: urls, Store: st, Logger: obs.NewLogger("text", io.Discard), Metrics: reg})
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := serve(s, fleet.NewHandler(s.disp), spans, "client"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startSystem brings up the node, or with fleet the fleet; spans
// non-nil installs the tracing taps. The fleet is up once the dispatcher
// reports every worker admitted and answers a fleet-wide query.
func startSystem(dir string, fleet bool, spans *spanLog) (*system, error) {
	sys := &system{spans: spans}
	if !fleet {
		node, err := startWorker("node", "", spans, "client")
		if err != nil {
			return nil, err
		}
		sys.workers = []*server{node}
		sys.all = sys.workers
		return sys, nil
	}
	for i := 0; i < 2; i++ {
		w, err := startWorker(fmt.Sprintf("worker%d", i+1), filepath.Join(dir, fmt.Sprintf("worker%d", i+1)), spans, "dispatcher")
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.workers = append(sys.workers, w)
		sys.all = append(sys.all, w)
	}
	d, err := startDispatcher(filepath.Join(dir, "dispatcher"), sys.workers, spans)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.disp = d
	sys.all = append(sys.all, d)
	if err := waitAdmitted(d.url, len(sys.workers)); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// waitAdmitted polls the dispatcher until /v1/stats counts every worker
// healthy and /v1/engines (answered by asking the workers) succeeds.
func waitAdmitted(base string, want int) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var doc struct {
			Dispatcher struct {
				Healthy int `json:"healthy_workers"`
			} `json:"dispatcher"`
		}
		if getJSON(hc, base+"/v1/stats", &doc) == nil && doc.Dispatcher.Healthy == want {
			var eng struct {
				Engines []string `json:"engines"`
			}
			if getJSON(hc, base+"/v1/engines", &eng) == nil && len(eng.Engines) > 0 {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("dispatcher at %s never admitted %d workers", base, want)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// close tears down in qmlserve's order: HTTP, dispatcher, pools, journals.
func (sys *system) close() {
	for _, s := range sys.all {
		if s.srv != nil {
			s.srv.Close()
			<-s.served
		}
	}
	if sys.disp != nil {
		sys.disp.close()
	}
	for _, s := range sys.all {
		if s != sys.disp {
			s.close()
		}
	}
}

func (s *server) close() {
	if s.disp != nil {
		s.disp.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	if s.st != nil {
		s.st.Close()
	}
	s.disp, s.pool, s.st = nil, nil, nil
}

// span is one handler invocation, keyed by the op's trace ID.
type span struct {
	Trace   string  `json:"trace"`
	Service string  `json:"service"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(trace, service, name, parent string, start, end time.Time) {
	s := span{Trace: trace, Service: service, Name: name, Parent: parent,
		StartUS: float64(start.Sub(l.t0).Nanoseconds()) / 1e3, EndUS: float64(end.Sub(l.t0).Nanoseconds()) / 1e3}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tap wraps a server's public handler: while its span log is on, it
// counts status reads and records one span per request under
// the request's trace ID. Requests without the header (the dispatcher's
// status polls) are attributed through the job ID the service handed
// out for that trace.
type tap struct {
	service string
	parent  string
	spans   *spanLog
	next    http.Handler

	polls  atomic.Uint64 // GET /v1/jobs/{id}: on a fleet worker, the dispatcher's status polls
	traces sync.Map      // job ID → trace ID
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.spans.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	route, id := routeOf(r.URL.Path)
	name := r.Method + " " + route
	if name == "GET /v1/jobs/{id}" {
		t.polls.Add(1)
	}
	trace := r.Header.Get(obs.TraceHeader)
	if trace == "" && id != "" {
		if v, ok := t.traces.Load(id); ok {
			trace = v.(string)
		}
	}
	start := time.Now()
	if r.Method == http.MethodPost {
		cw := &captureWriter{ResponseWriter: w}
		t.next.ServeHTTP(cw, r)
		var sub struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(cw.buf, &sub) == nil && sub.ID != "" {
			if trace == "" {
				trace = cw.Header().Get(obs.TraceHeader)
			}
			t.traces.Store(sub.ID, trace)
		}
	} else {
		t.next.ServeHTTP(w, r)
	}
	t.spans.add(trace, t.service, name, t.parent, start, time.Now())
}

// routeOf maps a request path to its route pattern and job ID.
func routeOf(path string) (route, id string) {
	for _, prefix := range []string{"/v1/jobs/", "/v1/sweeps/"} {
		if rest, ok := strings.CutPrefix(path, prefix); ok {
			id, tail, _ := strings.Cut(rest, "/")
			route = prefix + "{id}"
			if tail != "" {
				route += "/" + tail
			}
			return route, id
		}
	}
	return path, ""
}

// captureWriter keeps the first bytes of a submit response (the 202
// document carrying the job ID).
type captureWriter struct {
	http.ResponseWriter
	buf []byte
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if room := 4096 - len(c.buf); room > 0 {
		c.buf = append(c.buf, p[:min(room, len(p))]...)
	}
	return c.ResponseWriter.Write(p)
}
