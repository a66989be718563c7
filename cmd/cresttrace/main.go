// Command cresttrace runs a workload under one of the simulated
// transaction systems with observability on and renders what it
// recorded.
//
// Emit a Perfetto/chrome://tracing-compatible JSON timeline:
//
//	cresttrace -system crest -workload smallbank -format json -o trace.json
//
// Print per-transaction span timelines (virtual-time phase durations
// with round-trip attribution):
//
//	cresttrace -system ford -workload smallbank -format spans
//
// Print the hot-key contention profile (top-K cells by conflict and
// abort count):
//
//	cresttrace -workload ycsb -theta 0.99 -format hotkeys -top 10
//
// Explain why a transaction aborted (blame chain with per-hop virtual
// wait durations), from a fresh run or from a saved crest-why JSON
// export:
//
//	cresttrace why -workload smallbank -theta 0.99 412
//	cresttrace why -in why.json 412
//
// Export the aggregated contention dependency graph (hotspots and
// wait cycles) as Graphviz DOT or crest-why JSON:
//
//	cresttrace graph -workload smallbank -theta 0.99 -o why.dot
//	cresttrace graph -in why.json -format json
//
// Render the window executor's window/barrier timeline for a
// partitioned run, from a fresh run or from a saved crestbench
// -runtime-stats export:
//
//	cresttrace windows -workload smallbank -shards 4 -workers 4
//	cresttrace windows -in runtime.json
//
// Decompose tail latency into an additive per-component budget (wire,
// lock-wait, backoff, queueing, per-phase compute) and walk one
// outlier's critical path across its retries, from a fresh run or
// from a saved crestbench -flight JSON export:
//
//	cresttrace tail -workload smallbank -theta 0.99
//	cresttrace tail -in flight.json -top 10
//	cresttrace critpath -in flight.json 412
//
// Output is deterministic: the same seed and configuration produce
// byte-identical traces, blame chains, graphs and timelines — at any
// -workers count (observers record into per-partition shards and merge
// deterministically, so -workers only changes wall-clock speed).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"crest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: cresttrace [flags]                 render an event trace (legacy default)
       cresttrace trace [flags]           same, explicitly
       cresttrace why [flags] <txnid>     explain one transaction's abort
       cresttrace graph [flags]           export the contention graph (DOT or JSON)
       cresttrace windows [flags]         render the window executor timeline (partitioned runs)
       cresttrace tail [flags]            decompose tail latency into per-component budgets
       cresttrace critpath [flags] <txnid>  walk one transaction's critical path across retries

Run 'cresttrace <subcommand> -h' for the subcommand's flags.
`

func usage(stderr io.Writer) {
	fmt.Fprint(stderr, usageText)
}

// run dispatches the subcommand and returns the process exit code. It
// is the unit-testable seam: main only binds it to os streams.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "trace":
			return runTrace(args[1:], stdout, stderr)
		case "why":
			return runWhy(args[1:], stdout, stderr)
		case "graph":
			return runGraph(args[1:], stdout, stderr)
		case "windows":
			return runWindows(args[1:], stdout, stderr)
		case "tail":
			return runTail(args[1:], stdout, stderr)
		case "critpath":
			return runCritPath(args[1:], stdout, stderr)
		default:
			fmt.Fprintf(stderr, "cresttrace: unknown subcommand %q\n", args[0])
			usage(stderr)
			return 2
		}
	}
	return runTrace(args, stdout, stderr)
}

// benchFlags are the run-shape flags shared by every subcommand that
// executes a fresh benchmark.
type benchFlags struct {
	system   *string
	workload *string
	coords   *int
	wh       *int
	theta    *float64
	duration *time.Duration
	warmup   *time.Duration
	seed     *int64
	shards   *int
	place    *string
	workers  *int
}

func addBenchFlags(fs *flag.FlagSet) *benchFlags {
	return &benchFlags{
		system:   fs.String("system", "crest", "system: crest, crest-cell, crest-base, ford, motor"),
		workload: fs.String("workload", "smallbank", "workload: tpcc, smallbank, ycsb"),
		coords:   fs.Int("coords", 12, "total coordinators (across 3 compute nodes)"),
		wh:       fs.Int("warehouses", 8, "TPC-C warehouses"),
		theta:    fs.Float64("theta", 0, "Zipfian constant (0 = workload default)"),
		duration: fs.Duration("duration", 2*time.Millisecond, "recorded virtual time"),
		warmup:   fs.Duration("warmup", 200*time.Microsecond, "virtual warmup before the recorded window"),
		seed:     fs.Int64("seed", 1, "simulation seed"),
		shards:   fs.Int("shards", 1, "shard groups of independent memory nodes"),
		place:    fs.String("placement", "hash", "data placement policy: "+strings.Join(crest.PlacementPolicies(), ", ")),
		workers:  fs.Int("workers", 1, "scheduler threads executing shard-group partitions concurrently (output is byte-identical at any count; 1 = sequential)"),
	}
}

// validate checks the shared flags; subcommands call it right after
// Parse so a bad value fails with usage instead of deep in the harness.
func (bf *benchFlags) validate() error {
	return crest.ValidateWorkers(*bf.workers)
}

func (bf *benchFlags) config() crest.BenchmarkConfig {
	return crest.BenchmarkConfig{
		System:              crest.System(strings.ToLower(*bf.system)),
		Workload:            strings.ToLower(*bf.workload),
		Warehouses:          *bf.wh,
		Theta:               *bf.theta,
		CoordinatorsPerNode: (*bf.coords + 2) / 3,
		Shards:              *bf.shards,
		Placement:           strings.ToLower(*bf.place),
		Duration:            *bf.duration,
		Warmup:              *bf.warmup,
		Seed:                *bf.seed,
		Quick:               true,
		Workers:             *bf.workers,
	}
}

// whySnapshotFrom loads the causality snapshot: from a crest-why JSON
// file when in is set, otherwise by running the configured benchmark
// with recording on.
func whySnapshotFrom(in string, bf *benchFlags, capacity int, stderr io.Writer) (*crest.WhySnapshot, int) {
	cfg := bf.config()
	cfg.Why = true
	cfg.WhyCapacity = capacity
	return snapshotFrom(in, crest.ReadWhyJSON, cfg, stderr, func(res crest.BenchmarkResult) *crest.WhySnapshot {
		fmt.Fprintf(stderr, "[%s/%s: %d txns, %d edges recorded, %.1f KOPS]\n",
			res.System, res.Workload, len(res.Why.Txns), len(res.Why.Edges), res.ThroughputKOPS)
		return res.Why
	})
}

// flightSnapshotFrom loads the flight snapshot: from a crest-flight
// JSON file when in is set, otherwise by running the configured
// benchmark with the flight recorder on.
func flightSnapshotFrom(in string, bf *benchFlags, capacity int, stderr io.Writer) (*crest.FlightSnapshot, int) {
	cfg := bf.config()
	cfg.Flight = true
	cfg.FlightCapacity = capacity
	return snapshotFrom(in, crest.ReadFlightJSON, cfg, stderr, func(res crest.BenchmarkResult) *crest.FlightSnapshot {
		fmt.Fprintf(stderr, "[%s/%s: %d txns, %d exemplars recorded, %.1f KOPS]\n",
			res.System, res.Workload, len(res.Flight.Txns), len(res.Flight.Exemplars), res.ThroughputKOPS)
		return res.Flight
	})
}

// snapshotFrom loads an observer snapshot: parsed by read from the JSON
// export in when set, otherwise taken from a benchmark run of cfg.
func snapshotFrom[S any](in string, read func(io.Reader) (*S, error), cfg crest.BenchmarkConfig,
	stderr io.Writer, take func(crest.BenchmarkResult) *S) (*S, int) {
	if in == "" {
		res, err := crest.RunBenchmark(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "cresttrace: %v\n", err)
			return nil, 1
		}
		return take(res), 0
	}
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace: %v\n", err)
		usage(stderr)
		return nil, 1
	}
	defer f.Close()
	snap, err := read(f)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace: reading %s: %v\n", in, err)
		usage(stderr)
		return nil, 1
	}
	return snap, 0
}

// runTail prints the aggregate latency budget report: the p50/p99/
// p99.9 component decomposition, the tail-vs-median attribution, and
// the slowest exemplars' critical paths.
func runTail(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cresttrace tail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bf := addBenchFlags(fs)
	in := fs.String("in", "", "read a crest-flight JSON export (crestbench -flight) instead of running a benchmark")
	capacity := fs.Int("txns", 0, "flight summary ring capacity (0 = default)")
	top := fs.Int("top", 5, "exemplar critical paths in the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bf.validate(); err != nil {
		fmt.Fprintf(stderr, "cresttrace tail: %v\n", err)
		usage(stderr)
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "cresttrace tail: unexpected argument %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}
	snap, code := flightSnapshotFrom(*in, bf, *capacity, stderr)
	if code != 0 {
		return code
	}
	if err := crest.WriteFlightTail(stdout, snap, *top); err != nil {
		fmt.Fprintf(stderr, "cresttrace tail: %v\n", err)
		return 1
	}
	return 0
}

// runCritPath prints one transaction's budget decomposition, attempt
// timeline and critical path.
func runCritPath(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cresttrace critpath", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bf := addBenchFlags(fs)
	in := fs.String("in", "", "read a crest-flight JSON export (crestbench -flight) instead of running a benchmark")
	capacity := fs.Int("txns", 0, "flight summary ring capacity (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bf.validate(); err != nil {
		fmt.Fprintf(stderr, "cresttrace critpath: %v\n", err)
		usage(stderr)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "cresttrace critpath: exactly one <txnid> argument required")
		usage(stderr)
		return 2
	}
	id, err := strconv.ParseUint(fs.Arg(0), 10, 64)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace critpath: bad transaction id %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}
	snap, code := flightSnapshotFrom(*in, bf, *capacity, stderr)
	if code != 0 {
		return code
	}
	if err := crest.WriteFlightCritPath(stdout, snap, id); err != nil {
		fmt.Fprintf(stderr, "cresttrace critpath: %v\n", err)
		return 1
	}
	return 0
}

// runWhy prints the blame chain for one transaction.
func runWhy(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cresttrace why", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bf := addBenchFlags(fs)
	in := fs.String("in", "", "read a crest-why JSON export instead of running a benchmark")
	capacity := fs.Int("edges", 0, "causality edge ring capacity (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bf.validate(); err != nil {
		fmt.Fprintf(stderr, "cresttrace why: %v\n", err)
		usage(stderr)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "cresttrace why: exactly one <txnid> argument required")
		usage(stderr)
		return 2
	}
	id, err := strconv.ParseUint(fs.Arg(0), 10, 64)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace why: bad transaction id %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}
	snap, code := whySnapshotFrom(*in, bf, *capacity, stderr)
	if code != 0 {
		return code
	}
	if err := crest.WriteWhyBlame(stdout, snap, id); err != nil {
		fmt.Fprintf(stderr, "cresttrace why: %v\n", err)
		return 1
	}
	return 0
}

// runGraph exports the aggregated contention dependency graph.
func runGraph(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cresttrace graph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bf := addBenchFlags(fs)
	in := fs.String("in", "", "read a crest-why JSON export instead of running a benchmark")
	format := fs.String("format", "dot", "output: dot (Graphviz) or json (crest-why/v1)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bf.validate(); err != nil {
		fmt.Fprintf(stderr, "cresttrace graph: %v\n", err)
		usage(stderr)
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "cresttrace graph: unexpected argument %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}
	if *format != "dot" && *format != "json" {
		fmt.Fprintf(stderr, "cresttrace graph: unknown format %q (dot or json)\n", *format)
		usage(stderr)
		return 2
	}
	snap, code := whySnapshotFrom(*in, bf, 0, stderr)
	if code != 0 {
		return code
	}
	err := render(*out, stdout, func(w io.Writer) error {
		if *format == "json" {
			return crest.WriteWhyJSON(w, snap)
		}
		return crest.WriteWhyDOT(w, snap)
	})
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace graph: %v\n", err)
		return 1
	}
	return 0
}

// runWindows renders the window executor's window/barrier timeline of
// a partitioned run: per-window virtual-time spans with event and
// injection counts, plus per-partition executor counters. The timeline
// uses only schedule-derived fields, so stdout is byte-identical at any
// -workers count; the wall-clock summary goes to stderr.
func runWindows(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cresttrace windows", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bf := addBenchFlags(fs)
	in := fs.String("in", "", "read a crest-runtime JSON export (crestbench -runtime-stats) instead of running a benchmark")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bf.validate(); err != nil {
		fmt.Fprintf(stderr, "cresttrace windows: %v\n", err)
		usage(stderr)
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "cresttrace windows: unexpected argument %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}

	var stats *crest.RuntimeStats
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(stderr, "cresttrace windows: %v\n", err)
			return 1
		}
		stats, err = crest.ReadRuntimeStats(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "cresttrace windows: reading %s: %v\n", *in, err)
			return 1
		}
	} else {
		res, err := crest.RunBenchmark(bf.config())
		if err != nil {
			fmt.Fprintf(stderr, "cresttrace windows: %v\n", err)
			return 1
		}
		if res.Runtime == nil {
			fmt.Fprintf(stderr, "cresttrace windows: run was not partitioned (needs -shards > 1 with a partition-safe workload)\n")
			return 1
		}
		stats = res.Runtime
		fmt.Fprintf(stderr, "[%s/%s: %d events, %.1f KOPS]\n",
			res.System, res.Workload, res.Events, res.ThroughputKOPS)
	}

	err := render(*out, stdout, func(w io.Writer) error { return crest.WriteWindowTimeline(w, stats) })
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace windows: %v\n", err)
		return 1
	}
	if stats.WallMS > 0 {
		fmt.Fprintf(stderr, "[runtime: %d workers, %.1f ms wall, %.1f ms barrier wait, occupancy %.0f%%]\n",
			stats.Workers, stats.WallMS, stats.BarrierWaitMS, 100*stats.WorkerOccupancy)
	}
	return 0
}

// runTrace is the original cresttrace behavior: run with tracing on
// and render the event stream.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cresttrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bf := addBenchFlags(fs)
	var (
		format   = fs.String("format", "json", "output: json (Chrome trace_event), spans (text timelines), hotkeys (contention profile)")
		out      = fs.String("o", "", "output file (default stdout)")
		top      = fs.Int("top", 20, "entries in the hotkeys report")
		capacity = fs.Int("events", 0, "trace ring capacity (0 = default)")
		metOut   = fs.String("metrics", "", "also write the run's windowed metrics to this file (.csv, .json or Prometheus text by extension)")
		metWin   = fs.Duration("metrics-window", 100*time.Microsecond, "with -metrics: time-series window in virtual time")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bf.validate(); err != nil {
		fmt.Fprintf(stderr, "cresttrace: %v\n", err)
		usage(stderr)
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "cresttrace: unexpected argument %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}
	switch *format {
	case "json", "spans", "hotkeys":
	default:
		fmt.Fprintf(stderr, "cresttrace: unknown format %q (json, spans or hotkeys)\n", *format)
		usage(stderr)
		return 2
	}

	cfg := bf.config()
	cfg.Trace = true
	cfg.TraceCapacity = *capacity
	cfg.Metrics = *metOut != ""
	cfg.MetricsWindow = *metWin
	res, err := crest.RunBenchmark(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace: %v\n", err)
		return 1
	}

	if *metOut != "" {
		err := render(*metOut, stdout, func(w io.Writer) error {
			switch {
			case strings.HasSuffix(*metOut, ".csv"):
				return crest.WriteMetricsCSV(w, res.Metrics)
			case strings.HasSuffix(*metOut, ".json"):
				return crest.WriteMetricsJSON(w, res.Metrics)
			}
			return crest.WriteMetricsPrometheus(w, res.Metrics)
		})
		if err != nil {
			fmt.Fprintf(stderr, "cresttrace: writing %s: %v\n", *metOut, err)
			return 1
		}
		fmt.Fprintf(stderr, "[metrics: %d series, %d windows -> %s]\n",
			len(res.Metrics.Series), len(res.Metrics.Times), *metOut)
	}

	snap := res.Trace
	err = render(*out, stdout, func(w io.Writer) error {
		switch *format {
		case "json":
			return crest.WriteChromeTrace(w, snap)
		case "spans":
			return crest.WriteSpanSummary(w, snap)
		}
		return crest.WriteHotKeys(w, snap, *top)
	})
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "[%s/%s: %d events, %d dropped, %.1f KOPS in the traced window]\n",
		res.System, res.Workload, len(snap.Events), snap.Dropped, res.ThroughputKOPS)
	return 0
}

// render writes through a buffer to the file path names, or to stdout
// when path is empty. The file is closed on every path; a failed write,
// Flush or Close is returned.
func render(path string, stdout io.Writer, write func(io.Writer) error) error {
	w := stdout
	var f *os.File
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		w = f
	}
	bw := bufio.NewWriter(w)
	err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
