package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// opTimeout bounds one op end to end; an op past it counts as failed.
const opTimeout = 60 * time.Second

// client speaks the /v1 protocol the way a script waiting for each
// answer does: POST the bundle, long-poll the status until terminal,
// fetch the result.
type client struct {
	hc *http.Client
	// corrupt, when set, rewrites every fetched result document before
	// it is decoded; the self-test uses it to prove a wrong answer
	// counts as failed.
	corrupt func([]byte) []byte
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusDoc is the part of a status document the benchmark reads.
type statusDoc struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Error  string     `json:"error"`
	Worker string     `json:"worker"`
	Remote string     `json:"remote"`
	Spans  []obs.Span `json:"spans"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// do runs one op against base and returns its points and final status
// document. trace is sent as X-Trace-Id.
func (c *client) do(base string, in *opInput, trace string) ([]point, statusDoc, error) {
	path := "/v1/jobs"
	if in.points > 0 {
		path = "/v1/sweeps"
	}
	if in.shards > 0 {
		path += fmt.Sprintf("?shards=%d", in.shards)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(in.body))
	if err != nil {
		return nil, statusDoc{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	code, body, err := c.send(req)
	if err != nil {
		return nil, statusDoc{}, err
	}
	if code != http.StatusAccepted {
		return nil, statusDoc{}, fmt.Errorf("POST %s: %d %s", path, code, bytes.TrimSpace(body))
	}
	var sub statusDoc
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return nil, statusDoc{}, fmt.Errorf("POST %s: unreadable 202: %v", path, err)
	}
	if in.points > 0 {
		return c.sweep(base, sub.ID)
	}
	st, err := c.wait(base, sub.ID)
	if err != nil {
		return nil, st, err
	}
	if st.State != "done" {
		return nil, st, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	code, body, err = c.get(base + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		return nil, st, err
	}
	if code != http.StatusOK {
		return nil, st, fmt.Errorf("result %s: %d", sub.ID, code)
	}
	var p point
	if err := json.Unmarshal(c.mangle(body), &p); err != nil {
		return nil, st, fmt.Errorf("result %s: %v", sub.ID, err)
	}
	return []point{p}, st, nil
}

// wait long-polls GET /v1/jobs/{id}?wait= until the job is terminal.
func (c *client) wait(base, id string) (statusDoc, error) {
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		code, body, err := c.get(base + "/v1/jobs/" + id + "?wait=30s")
		if err != nil {
			return statusDoc{}, err
		}
		if code != http.StatusOK {
			return statusDoc{}, fmt.Errorf("status %s: %d", id, code)
		}
		var st statusDoc
		if err := json.Unmarshal(body, &st); err != nil {
			return statusDoc{}, fmt.Errorf("status %s: %v", id, err)
		}
		if terminal(st.State) {
			return st, nil
		}
	}
	return statusDoc{}, fmt.Errorf("job %s: timed out", id)
}

// sweep long-polls GET /v1/sweeps/{id}?wait= until it answers 200 with
// the indexed per-point results, then reads the final status.
func (c *client) sweep(base, id string) ([]point, statusDoc, error) {
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		code, body, err := c.get(base + "/v1/sweeps/" + id + "?wait=30s")
		if err != nil {
			return nil, statusDoc{}, err
		}
		switch code {
		case http.StatusAccepted:
			continue
		case http.StatusOK:
		default:
			return nil, statusDoc{}, fmt.Errorf("sweep %s: %d %s", id, code, bytes.TrimSpace(body))
		}
		var doc struct {
			State   string  `json:"state"`
			Results []point `json:"results"`
		}
		if err := json.Unmarshal(c.mangle(body), &doc); err != nil {
			return nil, statusDoc{}, fmt.Errorf("sweep %s: %v", id, err)
		}
		if doc.State != "done" {
			return nil, statusDoc{}, fmt.Errorf("sweep %s ended %s", id, doc.State)
		}
		return doc.Results, statusDoc{ID: id, State: doc.State}, nil
	}
	return nil, statusDoc{}, fmt.Errorf("sweep %s: timed out", id)
}

// status reads a job's status document once (no wait).
func (c *client) status(base, id string) (statusDoc, error) {
	code, body, err := c.get(base + "/v1/jobs/" + id)
	if err != nil {
		return statusDoc{}, err
	}
	if code != http.StatusOK {
		return statusDoc{}, fmt.Errorf("status %s: %d", id, code)
	}
	var st statusDoc
	err = json.Unmarshal(body, &st)
	return st, err
}

func (c *client) mangle(body []byte) []byte {
	if c.corrupt != nil {
		return c.corrupt(body)
	}
	return body
}

func (c *client) get(url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.send(req)
}

func (c *client) send(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
