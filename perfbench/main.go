// Command perfbench is the repository's benchmark. It runs named
// workloads through the harness every CLI and the public API end in
// (bench.Run with a bench.Config), checks the outputs, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced run (--trace 1), one JSON object on the last line.
//
//	go run . --workload smallbank-hot --seed 1 --seconds 20 --trace 0
//
// GC pacing matches crestbench: GOGC=400 unless GOGC is set. See
// README.md for the workloads, the metrics and what they predict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// minTimedCalls is the fewest timed harness calls a run makes, however
// short --seconds is, so every host metric is a median of at least
// three.
const minTimedCalls = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run, or \"all\" ("+strings.Join(specNames(), ", ")+")")
		seed    = fs.Int64("seed", 1, "workload seed: the simulation's only source of randomness")
		seconds = fs.Int("seconds", 10, "host seconds of timed harness calls per workload")
		traced  = fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics instead of end-to-end ones")
		outDir  = fs.String("out", filepath.Join(os.TempDir(), "perfbench-out"), "directory for exports, spans and CPU profiles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: perfbench --workload <names> [--seed n] [--seconds n] [--trace 0|1] [--out dir]")
		return 2
	}
	var chosen []*spec
	if *names == "all" {
		for i := range specs {
			chosen = append(chosen, &specs[i])
		}
	} else {
		for _, n := range strings.Split(*names, ",") {
			s := findSpec(n)
			if s == nil {
				fmt.Fprintf(stderr, "perfbench: unknown workload %q (%s)\n", n, strings.Join(specNames(), ", "))
				return 2
			}
			chosen = append(chosen, s)
		}
	}

	// The simulator's steady state allocates little, so crestbench
	// relaxes GC pacing; the benchmark measures the same setting.
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		debug.SetGCPercent(400)
		gogc = "400"
	}
	fmt.Fprintf(stdout, "perfbench: seed %d, %d s timed per workload, trace %d, GOGC=%s, GOMAXPROCS=%d, %s\n",
		*seed, *seconds, *traced, gogc, runtime.GOMAXPROCS(0), runtime.Version())

	out := result{Correct: true, Metrics: map[string]value{}}
	for _, s := range chosen {
		o := measure(s, *seed, *seconds, *traced == 1, *outDir, stdout)
		o.report(stdout)
		out.add(o, len(chosen) > 1)
	}
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds one workload's outcome in; several workloads prefix their
// metric names with the workload name.
func (r *result) add(o *outcome, prefix bool) {
	r.Correct = r.Correct && o.correct()
	r.Attempted += o.attempted
	r.Failed += o.failed()
	for _, m := range o.metrics {
		name := m.name
		if prefix {
			name = o.spec.name + "/" + name
		}
		r.Metrics[name] = value{Value: m.value, Unit: m.unit}
	}
}
