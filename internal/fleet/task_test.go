package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// TestOutOfBandCancelReleasesWorker: a remote task canceled directly on
// its worker, bypassing the dispatcher, ends the job with the outcome its
// kind prescribes — a plain job is canceled, a sweep fails naming the
// lost range — and either way the worker's outstanding count drops back
// to zero once every job is terminal, so routing never sees phantom load.
func TestOutOfBandCancelReleasesWorker(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep bool
	}{
		{name: "job"},
		{name: "sweep", sweep: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := "fake.fleet_oob_" + tc.name
			fb := registerFake(t, engine)
			fb.block = make(chan struct{})
			fb.ran = make(chan struct{}, 1)
			var unblock sync.Once
			release := func() { unblock.Do(func() { close(fb.block) }) }
			t.Cleanup(release)
			w := startWorker(t, 1)
			d := newDispatcher(t, fastOpts(w))

			// Hold the worker's only slot so the task under test stays
			// queued there, where a DELETE cancels it.
			blocker, err := d.Submit(fleetBundle(t, engine, 99), 0)
			if err != nil {
				t.Fatal(err)
			}
			<-fb.ran

			var sub Status
			if tc.sweep {
				sub, err = d.SubmitSweep(sweepFleetBundle(t, engine, sweepGrid(3)))
			} else {
				sub, err = d.Submit(fleetBundle(t, engine, 1), 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			remote := ""
			for deadline := time.Now().Add(10 * time.Second); remote == "" && time.Now().Before(deadline); {
				st, err := d.Status(sub.ID)
				if err != nil {
					t.Fatal(err)
				}
				remote = st.Remote
				if tc.sweep && len(st.Ranges) == 1 {
					remote = st.Ranges[0].Remote
				}
				if remote == "" {
					time.Sleep(5 * time.Millisecond)
				}
			}
			if remote == "" {
				t.Fatal("task never assigned within 10s")
			}

			req, err := http.NewRequestWithContext(context.Background(), http.MethodDelete, w.srv.URL+"/v1/jobs/"+remote, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("out-of-band cancel of %s: %d", remote, resp.StatusCode)
			}

			fin, err := d.Wait(sub.ID)
			if err != nil {
				t.Fatal(err)
			}
			if tc.sweep {
				if fin.State != jobs.StateFailed || !strings.Contains(fin.Error, "range [0,3)") {
					t.Fatalf("sweep ended %s (%q), want failed naming range [0,3)", fin.State, fin.Error)
				}
			} else if fin.State != jobs.StateCanceled {
				t.Fatalf("job ended %s (%q), want canceled", fin.State, fin.Error)
			}

			release()
			if st, err := d.Wait(blocker.ID); err != nil || st.State != jobs.StateDone {
				t.Fatalf("blocker: %+v %v", st, err)
			}
			for _, info := range d.WorkerInfos() {
				if info.Outstanding != 0 {
					t.Errorf("worker %s outstanding = %d after every job is terminal, want 0", info.Name, info.Outstanding)
				}
			}
		})
	}
}

// TestSweepShardPinForwarded: POST /v1/sweeps?shards=N parses exactly as
// on a worker, and the pin rides every range's forward to its worker.
func TestSweepShardPinForwarded(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 1, QueueDepth: 8})
	t.Cleanup(pool.Close)
	inner := jobs.NewHandler(pool)
	var mu sync.Mutex
	var queries []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			queries = append(queries, r.URL.Path+"?"+r.URL.RawQuery)
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	opts := fastOpts()
	opts.Workers = []string{srv.URL}
	front := httptest.NewServer(NewHandler(newDispatcher(t, opts)))
	t.Cleanup(front.Close)

	raw, err := sweepFleetBundle(t, "gate.statevector", sweepGrid(3)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/sweeps?shards=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d %v", resp.StatusCode, err)
	}
	sweepResultsByIndex(t, front.URL, sub.ID)
	mu.Lock()
	defer mu.Unlock()
	if len(queries) != 1 || queries[0] != "/v1/sweeps?shards=1" {
		t.Fatalf("worker saw submissions %q, want one POST /v1/sweeps?shards=1", queries)
	}
}
