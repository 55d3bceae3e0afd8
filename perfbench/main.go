// Command perfbench is the repository's end-to-end benchmark. One process
// starts the real ldapnet master server, one cascade mid-tier and
// supervisor-driven leaf replicas on 127.0.0.1, drives them with seeded
// open-loop traffic, checks that every replica converged to the master's
// content, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// wraps each layer's public seam, writes its spans under .bench_out/ and
// reports the per-layer metrics instead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload lookup --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// procStart is the process start, the origin of the first set-up.
var procStart = time.Now()

func main() {
	name := flag.String("workload", "lookup", "workload: lookup or fanout")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 30, "length of the fixed-rate measurement window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for span files and the last untraced result")
	flag.Parse()

	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	p := defaultParams(time.Duration(*seconds) * time.Second)
	res, err := execute(*name, p, *seed, *trace == 1, procStart, *outDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// params sizes one run. defaultParams is the benchmark; the smoke test
// uses a toy size.
type params struct {
	employees    int           // directory population (local geography = 30%)
	journal      int           // master and tier journal bound
	window       time.Duration // fixed-rate measurement window
	lookupRate   float64       // lookup workload: lookups/s over both leaves
	probeRate    float64       // fanout: lookups/s at one leaf
	writeRate    float64       // updates/s, both workloads
	warmup       time.Duration // untimed fixed-rate load before the window
	joins        int           // joins in the join phase, one at a time
	idleSessions int           // idle poll sessions opened at the tier
	hotFilters   int           // serial-block filters per lookup leaf
	trainQueries int           // trace prefix used to rank hot blocks
	perSpec      int           // fanout leaves per quarter spec
	settle       time.Duration // convergence deadline for the final check
}

func defaultParams(window time.Duration) params {
	return params{
		employees:    20000,
		journal:      4096,
		window:       window,
		lookupRate:   300,
		probeRate:    250,
		writeRate:    20,
		warmup:       3 * time.Second,
		joins:        40,
		idleSessions: 16,
		hotFilters:   16,
		trainQueries: 5000,
		perSpec:      4,
		settle:       30 * time.Second,
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine describes where a run was measured.
func machine(seed int64, shards int) string {
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d go=%s %s/%s shards=%d seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, shards, seed)
}
