// Command perfbench is this repository's benchmark: one process drives
// one of four workloads through the public entry points of the serving
// stack and the experiment harness, checks every output, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload exact-miss --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with every flight
// recorder off. --trace 1 reports the per-layer metrics: the workload
// runs untraced, with the service's and coordinator's trace rings armed,
// and as a replay through the public calls the service makes, timed call
// by call; the replay's layer self times are reconciled against the
// untraced median op time. RATIONALE.md records why each workload exists,
// how times are calibrated, and which end-to-end metric each layer should
// move.
//
// --regen rewrites the reference files under refs/ (result digests and
// the exact-tier fidelity reference) from the current sources; the
// benchmark embeds them, so rebuild afterwards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	dir     string // temporary directory for stores and journals
	// corrupt is the index of the timed op whose output is altered before
	// it is checked (-1: none): the self-test's proof that a wrong body
	// counts as a failed op.
	corrupt int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config) (*report, error){
	"exact-miss":   runExactMiss,
	"cache-hit":    runCacheHit,
	"sampled-grid": runSampledGrid,
	"fabric-cells": runFabricCells,
}

// maxClients bounds every workload's concurrency — clients, pool
// workers, fabric slots — at two, and never above the CPUs the process
// may use.
func maxClients() int { return min(2, runtime.NumCPU()) }

// scaled sizes a request list: perTen ops per ten nominal seconds. The
// list is always replayed in full, so --seconds sets the work, never a
// deadline.
func scaled(perTen, seconds int) int { return max(1, perTen*seconds/10) }

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; sizes the request list")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics")
	regen := flag.Bool("regen", false, "rewrite the reference files in perfbench/refs and exit")
	flag.Parse()
	if *regen {
		if err := regenerate(filepath.Join("perfbench", "refs")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rep, err := w(config{seed: *seed, seconds: *seconds, trace: *traced == 1, dir: dir, corrupt: -1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
