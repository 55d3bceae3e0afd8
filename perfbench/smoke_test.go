package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// toyParams shrinks every phase so each workload runs in seconds.
func toyParams() params {
	p := defaultParams(time.Second)
	p.employees = 2000
	p.journal = 1024
	p.lookupRate = 100
	p.probeRate = 40
	p.warmup = 300 * time.Millisecond
	p.joins = 3
	p.idleSessions = 4
	p.trainQueries = 500
	p.perSpec = 1
	p.settle = 20 * time.Second
	return p
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestSmoke runs each workload at toy size, untraced and traced, and
// checks that exactly the metrics BENCHMARK.json declares are emitted,
// with its units, and that the correctness check passes.
func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	out := t.TempDir()
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			var w io.Writer = io.Discard
			if testing.Verbose() {
				w = os.Stdout
			}
			res, err := execute(name, toyParams(), 3, traced, time.Now(), out, w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: correctness check failed", name, traced)
			}
			want := e2e
			if traced {
				want = layer
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: %s in %q, BENCHMARK.json says %q", name, traced, m, got.Unit, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
