package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// Self-test of the benchmark at a tiny size. Run from this directory:
//
//	go test .
//
// It checks that every metric BENCHMARK.json names prints with its unit,
// and that a deliberately corrupted answer counts as failed.

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tiny(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, root: t.TempDir(), setups: 1}
}

func checkMetrics(t *testing.T, rep *report, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("report has %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := run(tiny(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep, spec.EndToEnd)
		})
	}
}

func TestTracedRunPrintsPerLayerMetrics(t *testing.T) {
	spec := loadSpec(t)
	rep, err := run(tiny(t, "maxcut-qaoa", true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced run: attempted=%d failed=%d", rep.Attempted, rep.Failed)
	}
	checkMetrics(t, rep, spec.PerLayer)
	// The dispatcher polls a forwarded job once right after the forward
	// and then every PollInterval (100 ms by default) until it sees the
	// job done, and the op ends after that last poll. So per op, polls
	// are at least the forwards and at most the forwards plus the op's
	// latency in poll intervals; a count that takes in the benchmark's
	// own status reads, or misses the dispatcher's, falls outside.
	const pollInterval = 100.0 // ms, fleet.Options' default
	polls := rep.Metrics["fleet.worker_polls_per_op"].Value
	forwards := rep.Metrics["fleet.forwards_per_op"].Value
	maxPolls := forwards + mean(rep.traced.lat)/pollInterval
	if forwards < 1 || polls < forwards || polls > maxPolls {
		t.Errorf("fleet.worker_polls_per_op = %v with %v forwards per op; want within [%v, %v]", polls, forwards, forwards, maxPolls)
	}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestCorruptedAnswerCountsAsFailed(t *testing.T) {
	for _, name := range []string{"maxcut-qaoa", "qaoa-sweep"} {
		t.Run(name, func(t *testing.T) {
			cfg := tiny(t, name, false)
			// Prefix the first count in the document with a digit: the
			// counts no longer sum to the shots.
			cfg.corrupt = func(body []byte) []byte {
				return bytes.Replace(body, []byte(`"count": `), []byte(`"count": 1`), 1)
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Attempted < 1 || rep.Failed != rep.Attempted {
				t.Fatalf("correct=%v attempted=%d failed=%d; want every op failed", rep.Correct, rep.Attempted, rep.Failed)
			}
		})
	}
}
