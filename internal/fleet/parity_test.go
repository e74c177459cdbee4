package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/result"
)

const parityEngine = "fake.fleet_parity"

// Seeds that pick a gatedFake behaviour; any other seed succeeds at once.
const (
	seedFail  = 2
	seedBlock = 3
)

// gatedFake fails every seedFail run and holds every seedBlock run until
// its gate closes, so one request script can drive jobs through every
// lifecycle state on either tier.
type gatedFake struct {
	mu   sync.Mutex
	gate chan struct{}
}

func (f *gatedFake) Name() string { return parityEngine }

func (f *gatedFake) Execute(b *bundle.Bundle) (*result.Result, error) {
	switch b.Context.Exec.Seed {
	case seedFail:
		return nil, errors.New("fake: this seed always fails")
	case seedBlock:
		f.mu.Lock()
		gate := f.gate
		f.mu.Unlock()
		<-gate
	}
	return &result.Result{
		Engine:  parityEngine,
		Samples: 100,
		Entries: []result.Entry{{Bitstring: "0101", Index: 5, Count: 60}, {Bitstring: "1010", Index: 10, Count: 40}},
	}, nil
}

// parityStep is one request of the script both tiers answer. Path
// segments in braces name the job saved by an earlier step; await steps
// poll the status route until the named state and are not compared;
// release opens the fake's gate.
type parityStep struct {
	method, path string
	body         []byte
	save         string // submit steps: remember the answered id
	await        jobs.State
	release      bool
	want         int
}

// droppedKeys are the tier-specific fields of the /v1 documents: ids,
// timings, spans and the fleet's dispatch detail.
var droppedKeys = map[string]bool{
	"id": true, "worker": true, "remote": true, "reforwards": true, "ranges": true, "spans": true,
	"submitted_at": true, "started_at": true, "finished_at": true, "queue_ms": true, "run_ms": true, "eta_ms": true,
}

func normalizeDoc(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			if droppedKeys[k] {
				delete(v, k)
			} else {
				v[k] = normalizeDoc(e)
			}
		}
	case []any:
		for i, e := range v {
			v[i] = normalizeDoc(e)
		}
	}
	return v
}

type parityReply struct {
	code  int
	trace string // X-Trace-Id response header
	doc   any
}

func serve(t *testing.T, h http.Handler, method, path string, body []byte, trace string) (parityReply, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var doc any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s %s: %d with non-JSON body %q", method, path, rec.Code, rec.Body.Bytes())
	}
	return parityReply{code: rec.Code, trace: rec.Header().Get(obs.TraceHeader), doc: normalizeDoc(doc)}, rec.Body.Bytes()
}

// runParityScript plays steps against h and returns one reply per step
// (zero for await and release steps).
func runParityScript(t *testing.T, fake *gatedFake, h http.Handler, steps []parityStep) []parityReply {
	t.Helper()
	gate := make(chan struct{})
	fake.mu.Lock()
	fake.gate = gate
	fake.mu.Unlock()
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // a failed script must not leave a worker blocked

	ids := map[string]string{}
	replies := make([]parityReply, len(steps))
	for i, s := range steps {
		path := s.path
		for name, id := range ids {
			path = strings.ReplaceAll(path, "{"+name+"}", id)
		}
		switch {
		case s.release:
			release()
			continue
		case s.await != "":
			deadline := time.Now().Add(10 * time.Second)
			for {
				r, _ := serve(t, h, http.MethodGet, path, nil, "")
				if r.doc.(map[string]any)["state"] == string(s.await) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("step %d: %s never reached %s: %v", i, path, s.await, r.doc)
				}
				time.Sleep(2 * time.Millisecond)
			}
			continue
		}
		trace := ""
		if s.save != "" {
			trace = "parity-" + s.save
		}
		r, raw := serve(t, h, s.method, path, s.body, trace)
		if r.code != s.want {
			t.Fatalf("step %d: %s %s = %d, want %d (%s)", i, s.method, path, r.code, s.want, raw)
		}
		if s.save != "" {
			var sub struct{ ID string }
			if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
				t.Fatalf("step %d: submit answered %s", i, raw)
			}
			ids[s.save] = sub.ID
			if r.trace != trace {
				t.Fatalf("step %d: X-Trace-Id echo %q, want %q", i, r.trace, trace)
			}
		}
		replies[i] = r
	}
	return replies
}

func mustMarshal(t *testing.T, b *bundle.Bundle) []byte {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestProtocolParity plays one request table against a worker's handler
// and against a one-worker fleet's handler, and requires the same status
// code and the same decoded document from both once the tier-specific
// fields are dropped.
func TestProtocolParity(t *testing.T) {
	fake := &gatedFake{}
	backend.Register(parityEngine, func() backend.Backend { return fake })
	t.Cleanup(func() { backend.Unregister(parityEngine) })

	newPool := func() *jobs.Pool {
		p := jobs.NewPool(jobs.Options{Workers: 1, QueueDepth: 16, CacheSize: 16})
		t.Cleanup(p.Close)
		return p
	}
	workerH := jobs.NewHandler(newPool())
	behind := httptest.NewServer(jobs.NewHandler(newPool()))
	t.Cleanup(behind.Close)
	fleetH := NewHandler(newDispatcher(t, Options{
		Workers:        []string{behind.URL},
		RequestTimeout: 2 * time.Second,
		ProbeInterval:  20 * time.Millisecond,
		PollInterval:   5 * time.Millisecond,
	}))

	okRaw := mustMarshal(t, fleetBundle(t, parityEngine, 1))
	failRaw := mustMarshal(t, fleetBundle(t, parityEngine, seedFail))
	blockRaw := mustMarshal(t, fleetBundle(t, parityEngine, seedBlock))
	queuedRaw := mustMarshal(t, fleetBundle(t, parityEngine, 4))
	sweepRaw := mustMarshal(t, sweepFleetBundle(t, "gate.statevector", sweepGrid(3)))
	const unknown = "job-99999999"

	steps := []parityStep{
		// A job that succeeds: submit with a trace ID, long-poll, result.
		{method: "POST", path: "/v1/jobs", body: okRaw, save: "ok", want: http.StatusAccepted},
		{method: "GET", path: "/v1/jobs/{ok}?wait=10s", want: http.StatusOK},
		{method: "GET", path: "/v1/jobs/{ok}/result", want: http.StatusOK},
		{method: "DELETE", path: "/v1/jobs/{ok}", want: http.StatusConflict},
		{method: "GET", path: "/v1/sweeps/{ok}", want: http.StatusBadRequest},
		// A job that fails.
		{method: "POST", path: "/v1/jobs", body: failRaw, save: "fail", want: http.StatusAccepted},
		{method: "GET", path: "/v1/jobs/{fail}?wait=10s", want: http.StatusOK},
		{method: "GET", path: "/v1/jobs/{fail}/result", want: http.StatusInternalServerError},
		// A job held running, which keeps the one worker busy: the next
		// job and the sweep stay queued behind it.
		{method: "POST", path: "/v1/jobs", body: blockRaw, save: "block", want: http.StatusAccepted},
		{path: "/v1/jobs/{block}", await: jobs.StateRunning},
		{method: "GET", path: "/v1/jobs/{block}/result", want: http.StatusAccepted},
		{method: "POST", path: "/v1/jobs", body: queuedRaw, save: "queued", want: http.StatusAccepted},
		{method: "POST", path: "/v1/sweeps", body: sweepRaw, save: "sweep", want: http.StatusAccepted},
		{method: "GET", path: "/v1/sweeps/{sweep}", want: http.StatusAccepted},
		{method: "DELETE", path: "/v1/jobs/{queued}", want: http.StatusOK},
		{method: "GET", path: "/v1/jobs/{queued}/result", want: http.StatusGone},
		{release: true},
		{method: "GET", path: "/v1/sweeps/{sweep}?wait=30s", want: http.StatusOK},
		{method: "GET", path: "/v1/jobs/{block}?wait=10s", want: http.StatusOK},
		{method: "GET", path: "/v1/jobs?state=failed", want: http.StatusOK},
		// Malformed requests.
		{method: "POST", path: "/v1/jobs?shards=many", body: okRaw, want: http.StatusBadRequest},
		{method: "POST", path: "/v1/jobs", body: []byte(`{"not":"a bundle"}`), want: http.StatusBadRequest},
		{method: "POST", path: "/v1/jobs", body: bytes.Repeat([]byte(" "), jobs.MaxBodyBytes+1), want: http.StatusRequestEntityTooLarge},
		{method: "GET", path: "/v1/jobs/{ok}?wait=soon", want: http.StatusBadRequest},
		{method: "GET", path: "/v1/sweeps/{sweep}?wait=-1s", want: http.StatusBadRequest},
		{method: "GET", path: "/v1/jobs?state=bogus", want: http.StatusBadRequest},
		{method: "GET", path: "/v1/jobs?limit=0", want: http.StatusBadRequest},
		// Unknown IDs.
		{method: "GET", path: "/v1/jobs/" + unknown, want: http.StatusNotFound},
		{method: "GET", path: "/v1/jobs/" + unknown + "/result", want: http.StatusNotFound},
		{method: "DELETE", path: "/v1/jobs/" + unknown, want: http.StatusNotFound},
		{method: "GET", path: "/v1/sweeps/" + unknown, want: http.StatusNotFound},
	}

	want := runParityScript(t, fake, workerH, steps)
	got := runParityScript(t, fake, fleetH, steps)
	for i, s := range steps {
		if s.release || s.await != "" {
			continue
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			w, _ := json.MarshalIndent(want[i].doc, "", "  ")
			g, _ := json.MarshalIndent(got[i].doc, "", "  ")
			t.Errorf("step %d %s %s: worker answered %d %s\nfleet answered %d %s", i, s.method, s.path, want[i].code, w, got[i].code, g)
		}
	}
}

// TestFleetOnlyAnswers covers what only a fleet can answer: the result
// document relayed from the owning worker byte for byte, the
// {dispatcher, workers, fleet, build} stats document, and, once that
// worker is gone, 502 for the result and 503 for the engine list.
func TestFleetOnlyAnswers(t *testing.T) {
	registerFake(t, "fake.fleet_only")
	w := startWorker(t, 1)
	opts := fastOpts(w)
	opts.RequestTimeout = 500 * time.Millisecond
	d := newDispatcher(t, opts)
	h := NewHandler(d)
	st, err := d.Submit(fleetBundle(t, "fake.fleet_only", 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := d.Wait(st.ID)
	if err != nil || fin.State != jobs.StateDone {
		t.Fatalf("job: %+v %v", fin, err)
	}

	resp, err := http.Get(w.srv.URL + "/v1/jobs/" + fin.Remote + "/result")
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	r, relayed := serve(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, "")
	if r.code != resp.StatusCode || !bytes.Equal(relayed, direct) {
		t.Fatalf("relayed result %d %q, worker answered %d %q", r.code, relayed, resp.StatusCode, direct)
	}
	r, raw := serve(t, h, http.MethodGet, "/v1/stats", nil, "")
	keys := []string{}
	for k := range r.doc.(map[string]any) {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if r.code != http.StatusOK || strings.Join(keys, ",") != "build,dispatcher,fleet,workers" {
		t.Fatalf("stats = %d %s", r.code, raw)
	}

	w.srv.Close()
	if r, raw := serve(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, ""); r.code != http.StatusBadGateway {
		t.Fatalf("result from a dead worker = %d (%s), want 502", r.code, raw)
	}
	if r, raw := serve(t, h, http.MethodGet, "/v1/engines", nil, ""); r.code != http.StatusServiceUnavailable {
		t.Fatalf("engines with no live worker = %d (%s), want 503", r.code, raw)
	}
}
