package crest

import (
	"fmt"
	"io"
	"time"

	"crest/internal/bench"
	"crest/internal/sim"
	"crest/internal/workload"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/tpcc"
	"crest/internal/workload/ycsb"
)

// Workload names accepted by BenchmarkConfig.
const (
	WorkloadTPCC      = "tpcc"
	WorkloadSmallBank = "smallbank"
	WorkloadYCSB      = "ycsb"
)

// BenchmarkConfig describes one measured run, mirroring the paper's
// §8.2 methodology. Zero values take the evaluation defaults.
type BenchmarkConfig struct {
	System   System
	Workload string // tpcc, smallbank or ycsb

	// Scenario, when set, drives the run from a declarative scenario
	// (see ParseScenario / ParseScenarioFile): the spec's workload
	// section replaces Workload and the workload knobs below, and its
	// traffic timeline modulates load and hotspot placement over
	// virtual time. Determinism is unchanged — same seed, same spec,
	// byte-identical run.
	Scenario *ScenarioSpec

	// TPC-C contention knob (the paper sweeps 100 → 20 warehouses).
	Warehouses int
	// Zipfian constant for SmallBank and YCSB (0 = uniform).
	Theta float64
	// YCSB write ratio and records-per-transaction.
	WriteRatio   float64
	RecordsPerTx int

	// MemoryNodes is the number of memory nodes per shard group.
	MemoryNodes  int
	ComputeNodes int
	// Shards is the number of independent shard groups (default 1, the
	// classic single-group topology; 1 with hash placement is
	// byte-identical to the pre-sharding harness).
	Shards int
	// Placement names the data-placement policy routing records to
	// shard groups and nodes ("" = "hash"; see PlacementPolicies).
	// The "hotspot" policy seeds itself from PlacementHotKeys, or —
	// when none are given — from a short deterministic contention
	// probe of the same workload under modulo placement.
	Placement        string
	PlacementHotKeys []PlacementHotKey
	// Coordinators is the total coordinator count across compute
	// nodes; totals that do not divide the node count are spread by
	// giving the first nodes one extra coordinator, so exactly this
	// many run. It takes precedence over CoordinatorsPerNode.
	Coordinators        int
	CoordinatorsPerNode int
	Replicas            int
	Seed                int64

	// Duration is the measured virtual-time window; Warmup precedes
	// it and is excluded.
	Duration time.Duration
	Warmup   time.Duration

	// Scale shrinks table cardinalities for fast runs: records,
	// accounts and TPC-C rings use the quick profile when true.
	Quick bool

	// Trace records the run's deterministic event trace; the snapshot
	// comes back in BenchmarkResult.Trace.
	Trace bool
	// TraceCapacity bounds the trace ring buffer (0 = default).
	TraceCapacity int

	// Metrics records the run's windowed metrics time-series; the
	// snapshot comes back in BenchmarkResult.Metrics.
	Metrics bool
	// MetricsWindow is the sampling period in virtual time (default
	// 100µs of virtual time; ignored unless Metrics is set).
	MetricsWindow time.Duration

	// Why records wait-for and conflict edges for abort forensics; the
	// snapshot comes back in BenchmarkResult.Why.
	Why bool
	// WhyCapacity bounds the causality edge ring buffer (0 = default).
	WhyCapacity int

	// Flight records every transaction's additive latency budget and
	// the tail outliers' full per-attempt timelines; the snapshot comes
	// back in BenchmarkResult.Flight.
	Flight bool
	// FlightCapacity bounds the flight summary ring buffer (0 = default).
	FlightCapacity int

	// Workers is how many OS threads execute the simulation's
	// shard-group partitions concurrently (sharded topologies with a
	// partition-safe workload; other runs ignore it). It is an
	// invocation-level performance knob: every worker count produces
	// byte-identical results — including trace, metrics, why and flight
	// snapshots, which record into per-partition shards and merge
	// deterministically — so only the wall-clock measurements (WallMS,
	// EventsPerSec, the nondeterministic RuntimeStats fields) change.
	// 0 means 1.
	Workers int
}

// BenchmarkResult aggregates a run, in the paper's units.
type BenchmarkResult struct {
	System       System
	Workload     string
	Coordinators int

	ThroughputKOPS float64
	Committed      uint64
	Aborted        uint64
	AbortRate      float64
	FalseAbortRate float64

	AvgLatencyUs  float64
	P50LatencyUs  float64
	P99LatencyUs  float64
	P999LatencyUs float64

	// Per-phase average latency of committed transactions (µs).
	ExecUs     float64
	ValidateUs float64
	CommitUs   float64

	// Events is the number of scheduler dispatches the run consumed
	// (deterministic: same config, same count). WallMS is the real
	// time the event loop took and EventsPerSec the resulting
	// simulator speed — both nondeterministic measurements of the
	// simulator itself, not of the simulated system.
	Events       uint64
	WallMS       float64
	EventsPerSec float64

	// Trace is the run's event trace when BenchmarkConfig.Trace was
	// set (render with WriteChromeTrace / WriteSpanSummary /
	// WriteHotKeys), nil otherwise.
	Trace *TraceSnapshot

	// Metrics is the run's windowed metrics snapshot when
	// BenchmarkConfig.Metrics was set (render with
	// WriteMetricsPrometheus / WriteMetricsCSV / WriteMetricsJSON /
	// WriteMetricsSparklines), nil otherwise.
	Metrics *MetricsSnapshot

	// Why is the run's causality snapshot when BenchmarkConfig.Why was
	// set (render with WriteWhyBlame / WriteWhyDOT / WriteWhyJSON),
	// nil otherwise.
	Why *WhySnapshot

	// Flight is the run's latency-budget snapshot when
	// BenchmarkConfig.Flight was set (render with WriteFlightTail /
	// WriteFlightCritPath / WriteFlightJSON), nil otherwise.
	Flight *FlightSnapshot

	// ScenarioPhases is the per-phase breakdown (attempts, commits,
	// aborts) when the run was scenario-driven, nil otherwise.
	ScenarioPhases []ScenarioPhaseStat

	// Runtime is the window executor's introspection when the run was
	// partitioned (Shards > 1 with a partition-safe workload), nil
	// otherwise. Its wall-clock fields are nondeterministic; see
	// RuntimeStats for which fields are schedule-derived.
	Runtime *RuntimeStats
}

// String summarizes the result in one line.
func (r BenchmarkResult) String() string {
	return fmt.Sprintf("%s/%s @%d coordinators: %.1f KOPS, abort %.1f%%, avg %.1fµs p99 %.1fµs p999 %.1fµs",
		r.System, r.Workload, r.Coordinators, r.ThroughputKOPS, 100*r.AbortRate,
		r.AvgLatencyUs, r.P99LatencyUs, r.P999LatencyUs)
}

// RunBenchmark executes one measured run and returns its metrics.
func RunBenchmark(cfg BenchmarkConfig) (BenchmarkResult, error) {
	profile := benchProfileFor(cfg.Quick)
	gen, name, err := benchWorkload(cfg, profile)
	if err != nil {
		return BenchmarkResult{}, err
	}
	bc := bench.Config{
		System:       bench.SystemKind(withDefault(string(cfg.System), string(SystemCREST))),
		Workload:     gen,
		MemNodes:     cfg.MemoryNodes,
		CompNodes:    cfg.ComputeNodes,
		Shards:       cfg.Shards,
		Placement:    cfg.Placement,
		HotKeys:      cfg.PlacementHotKeys,
		Coordinators: cfg.Coordinators,
		CoordsPerCN:  cfg.CoordinatorsPerNode,
		Replicas:     cfg.Replicas,
		Seed:         cfg.Seed,
		Duration:     sim.Duration(cfg.Duration),
		Warmup:       sim.Duration(cfg.Warmup),
		Workers:      cfg.Workers,
	}
	obs := Config{
		Trace:          cfg.Trace,
		TraceCapacity:  cfg.TraceCapacity,
		Metrics:        cfg.Metrics,
		MetricsWindow:  cfg.MetricsWindow,
		Why:            cfg.Why,
		WhyCapacity:    cfg.WhyCapacity,
		Flight:         cfg.Flight,
		FlightCapacity: cfg.FlightCapacity,
	}.observers()
	bc.Trace, bc.Metrics, bc.Why, bc.Flight = obs.Trace, obs.Metrics, obs.Why, obs.Flight
	res, err := bench.Run(bc)
	if err != nil {
		return BenchmarkResult{}, err
	}
	out := BenchmarkResult{
		System:         System(res.System),
		Workload:       name,
		Coordinators:   res.Coordinators,
		ThroughputKOPS: res.ThroughputKOPS(),
		Committed:      res.Committed,
		Aborted:        res.Aborted,
		AbortRate:      res.AbortRate(),
		FalseAbortRate: res.FalseAbortRate(),
		AvgLatencyUs:   res.Lat.Avg(),
		P50LatencyUs:   res.Lat.P50(),
		P99LatencyUs:   res.Lat.P99(),
		P999LatencyUs:  res.Lat.P999(),
		ExecUs:         res.Phases.AvgExec(),
		ValidateUs:     res.Phases.AvgValidate(),
		CommitUs:       res.Phases.AvgCommit(),
		Events:         res.Events,
		WallMS:         res.WallMS,
		EventsPerSec:   eventsPerSec(res.Events, res.WallMS),
		ScenarioPhases: res.ScenarioPhases,
		Runtime:        newRuntimeStats(res.Runtime, res.WallMS, res.Events),
	}
	if obs.Trace != nil {
		out.Trace = obs.Trace.Snapshot()
	}
	if obs.Metrics != nil {
		out.Metrics = obs.Metrics.Snapshot()
	}
	if obs.Why != nil {
		out.Why = obs.Why.Snapshot()
	}
	if obs.Flight != nil {
		out.Flight = obs.Flight.Snapshot()
	}
	return out, nil
}

func eventsPerSec(events uint64, wallMS float64) float64 {
	if wallMS <= 0 {
		return 0
	}
	return float64(events) / (wallMS / 1e3)
}

func withDefault(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

func benchWorkload(cfg BenchmarkConfig, p bench.Profile) (func() workload.Generator, string, error) {
	if cfg.Scenario != nil {
		gen, err := p.ScenarioWorkload(cfg.Scenario)
		if err != nil {
			return nil, "", err
		}
		return gen, "scenario:" + cfg.Scenario.Name, nil
	}
	theta := cfg.Theta
	switch withDefault(cfg.Workload, WorkloadTPCC) {
	case WorkloadTPCC:
		wh := cfg.Warehouses
		if wh == 0 {
			wh = 40
		}
		return p.TPCC(wh), WorkloadTPCC, nil
	case WorkloadSmallBank:
		if theta == 0 {
			theta = smallbank.DefaultConfig().Theta
		}
		return p.SmallBank(theta), WorkloadSmallBank, nil
	case WorkloadYCSB:
		if theta == 0 {
			theta = ycsb.DefaultConfig().Theta
		}
		ratio := cfg.WriteRatio
		if ratio == 0 {
			ratio = 0.5
		}
		n := cfg.RecordsPerTx
		if n == 0 {
			n = 4
		}
		return p.YCSB(theta, ratio, n), WorkloadYCSB, nil
	}
	return nil, "", fmt.Errorf("crest: unknown workload %q", cfg.Workload)
}

// ExperimentTable is one regenerated artifact of the paper (a table or
// a figure's data series).
type ExperimentTable = bench.Table

// ExperimentIDs lists the reproducible artifacts in the paper's order:
// fig2–fig4 (motivation), table1–table2 (analysis), exp1–exp8
// (evaluation).
func ExperimentIDs() []string { return bench.ExperimentIDs() }

// RunExperiment regenerates one paper artifact. quick selects the
// CI-sized profile; otherwise the near-paper-scale profile runs (see
// EXPERIMENTS.md for expected output and timings). The experiment's
// runs execute in parallel; use RunMatrix to share runs across
// several experiments and to collect machine-readable records.
func RunExperiment(id string, quick bool) ([]ExperimentTable, error) {
	exp, ok := bench.Experiments[id]
	if !ok {
		return nil, fmt.Errorf("crest: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	return exp.Run(benchProfileFor(quick))
}

func benchProfileFor(quick bool) bench.Profile {
	if quick {
		return bench.Quick()
	}
	return bench.Full()
}

// The experiment-matrix surface: a RunSpec canonically identifies one
// deterministic run, a RunRecord is its schema-versioned outcome, and
// RunMatrix executes the deduplicated spec set of many experiments on
// a worker pool. See internal/bench's matrix runner for semantics.
type (
	// RunSpec canonically identifies one deterministic benchmark run.
	RunSpec = bench.RunSpec
	// RunRecord is one run's durable, machine-readable outcome.
	RunRecord = bench.RunRecord
	// MatrixOptions configure parallelism and the on-disk result cache.
	MatrixOptions = bench.MatrixOptions
	// MatrixResult is a matrix invocation's tables plus per-run records.
	MatrixResult = bench.MatrixResult
	// BenchResultSet is the schema-versioned JSON document of a matrix
	// invocation's unique runs.
	BenchResultSet = bench.ResultSet
	// BenchPerf is an invocation's simulator wall-clock summary (the
	// nondeterministic "perf" object of a measured BenchResultSet).
	BenchPerf = bench.BenchPerf
)

// BenchSchemaVersion identifies the JSON layout of RunRecord /
// BenchResultSet (the BENCH_*.json artifacts).
const BenchSchemaVersion = bench.SchemaVersion

// RunMatrix regenerates the named experiments (all of them when ids is
// empty) over one shared result store: every unique RunSpec executes
// exactly once — in parallel on opt.Workers simulations (GOMAXPROCS
// when ≤ 0), reusing opt.CacheDir across invocations when set — and
// the rendered tables are byte-identical for any worker count.
func RunMatrix(ids []string, quick bool, opt MatrixOptions) (*MatrixResult, error) {
	return bench.RunMatrix(ids, benchProfileFor(quick), opt)
}

// WriteBenchJSON emits a matrix invocation's per-run records as
// schema-versioned JSON (the BENCH_*.json format). The records are
// deterministic; the optional top-level "perf" object carries the
// invocation's wall-clock simulator measurements and is the one
// nondeterministic part — strip it (or compare ResultSet().Encode
// output) when diffing artifacts.
func WriteBenchJSON(w io.Writer, m *MatrixResult) error {
	return m.MeasuredResultSet().Encode(w)
}

// ReadBenchJSON parses a document written by WriteBenchJSON and
// verifies its schema version.
func ReadBenchJSON(r io.Reader) (*BenchResultSet, error) {
	return bench.DecodeResultSet(r)
}

// BenchComparison is a per-run KOPS diff of one result set against a
// baseline (see CompareBenchResultSets).
type BenchComparison = bench.Comparison

// CompareBenchResultSets diffs cur against base by canonical run key;
// render the result with its Format method. CI uses this to print the
// throughput delta of every quick-profile run against the checked-in
// BENCH_quick.json baseline.
func CompareBenchResultSets(base, cur *BenchResultSet) *BenchComparison {
	return bench.CompareResultSets(base, cur)
}

// Workload generator re-exports for custom harnesses.
var (
	// NewTPCC builds the TPC-C-style generator.
	NewTPCC = tpcc.New
	// NewSmallBank builds the SmallBank generator.
	NewSmallBank = smallbank.New
	// NewYCSB builds the transactional YCSB generator.
	NewYCSB = ycsb.New
)
