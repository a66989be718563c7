// Package bench is the experiment harness: it assembles a simulated
// cluster (memory pool + compute nodes + one of the five system
// configurations), loads a workload, drives coordinators for a span of
// virtual time, and aggregates the metrics the paper reports.
//
// Every table and figure of the paper's evaluation is a set of
// bench.Run calls with different knobs; see the experiment definitions
// in package benchdef (exp.go) and the per-experiment index in
// DESIGN.md.
package bench

import (
	"fmt"
	"time"

	"crest/internal/causality"
	"crest/internal/core"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/ford"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/metrics"
	"crest/internal/motor"
	"crest/internal/observe"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/scenario"
	"crest/internal/sim"
	"crest/internal/stats"
	"crest/internal/trace"
	"crest/internal/workload"
)

// SystemKind selects which transaction system a run uses.
type SystemKind string

// The five system configurations the paper evaluates.
const (
	CREST     SystemKind = "crest"      // full CREST
	CRESTCell SystemKind = "crest-cell" // factor analysis: +cell only
	CRESTBase SystemKind = "crest-base" // factor analysis: Base
	FORD      SystemKind = "ford"
	Motor     SystemKind = "motor"
)

// Config describes one benchmark run.
type Config struct {
	System   SystemKind
	Workload func() workload.Generator // fresh generator per run
	// MemNodes is the number of memory nodes per shard group (the
	// whole pool when Shards == 1).
	MemNodes  int
	CompNodes int
	// Shards is the number of independent shard groups (default 1 —
	// the classic topology; 1 with hash placement is byte-identical to
	// the pre-sharding harness).
	Shards int
	// Placement names the data-placement policy ("" = "hash"; see
	// internal/placement).
	Placement string
	// HotKeys seeds the "hotspot" placement policy. When the policy is
	// "hotspot" and HotKeys is empty, Run derives a seed by first
	// executing a short deterministic probe of the same workload under
	// modulo placement with a causality recorder and pinning its
	// hottest keys to shard group 0.
	HotKeys []placement.HotKey
	// CoordsPerCN is the number of coordinators per compute node; the
	// paper sweeps the total (CompNodes × CoordsPerCN) from 24 to 240.
	CoordsPerCN int
	// Coordinators, when non-zero, is the total coordinator count
	// across all compute nodes and takes precedence over CoordsPerCN.
	// A total that does not divide CompNodes is spread by giving the
	// first (total mod CompNodes) nodes one extra coordinator, so the
	// run uses exactly the requested count.
	Coordinators int
	Replicas     int // f backups per record
	Seed         int64
	// Duration is the measured window of virtual time. Coordinators
	// run transactions back to back until it elapses, then drain.
	Duration sim.Duration
	// Warmup excludes the ramp-up from the measurements.
	Warmup sim.Duration
	// Params overrides the fabric latency model (zero value = default).
	Params rdma.Params
	// CheckHistory turns on the serializability checker (slows the
	// run; used by tests, not benchmarks).
	CheckHistory bool
	// Trace, when non-nil, records the run's event stream (see
	// internal/trace). Tracing consumes no virtual time and no
	// randomness, so a traced run commits exactly the same schedule as
	// an untraced one.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives the run's instrument traffic (see
	// internal/metrics). Like tracing, metrics consume no virtual time
	// and no randomness: a metered run commits exactly the same
	// schedule as an unmetered one.
	Metrics *metrics.Registry
	// Why, when non-nil, records wait-for and conflict edges for abort
	// forensics (see internal/causality). Like tracing and metrics,
	// recording consumes no virtual time and no randomness.
	Why *causality.Recorder
	// Flight, when non-nil, records per-transaction latency budgets,
	// critical paths and tail exemplars (see internal/flight). Like the
	// other probes, recording consumes no virtual time and no
	// randomness. The recorder's warmup cutoff is set from Warmup so
	// capture matches the measurement window.
	Flight *flight.Recorder
	// Workers is how many OS threads execute shard-group partitions
	// concurrently when the run is partitioned (see Partitioned). It is
	// an invocation-level performance knob: every worker count produces
	// byte-identical results, so it must never enter a cache key or a
	// canonical record. 0 means 1.
	Workers int
}

// observers bundles the configured observers for engine.DB.Attach.
func (c Config) observers() observe.Set {
	return observe.Set{Trace: c.Trace, Metrics: c.Metrics, Why: c.Why, Flight: c.Flight}
}

// Partitioned reports whether the run executes on the partitioned
// parallel scheduler (sim.World): one partition per shard group. It
// requires a sharded topology and a partition-safe workload generator.
// The decision is a property of the topology alone — never of Workers
// or of attached observability probes — so a partitioned run is
// byte-identical at every worker count, and attaching any observer never
// changes the schedule: each partition records into its own shard of
// every observer (observe.Set.Shard), merged deterministically at
// snapshot time, so observed runs execute at full worker count.
func (c Config) Partitioned(gen workload.Generator) bool {
	return c.Shards > 1 && workload.IsPartitionSafe(gen)
}

// WithDefaults fills unset fields with the evaluation defaults: two
// memory nodes, three compute nodes (the paper's testbed shape), f=1
// replication, 20 ms measured after 2 ms warmup.
func (c Config) WithDefaults() Config {
	if c.System == "" {
		c.System = CREST
	}
	if c.MemNodes == 0 {
		c.MemNodes = 2
	}
	if c.CompNodes == 0 {
		c.CompNodes = 3
	}
	if c.CoordsPerCN == 0 && c.Coordinators == 0 {
		c.CoordsPerCN = 80
	}
	if c.Duration == 0 {
		c.Duration = 20 * sim.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Params.RTT == 0 {
		c.Params = rdma.DefaultParams()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// TotalCoordinators is the number of coordinators the run drives:
// Coordinators when set, CompNodes × CoordsPerCN otherwise.
func (c Config) TotalCoordinators() int {
	if c.Coordinators > 0 {
		return c.Coordinators
	}
	return c.CompNodes * c.CoordsPerCN
}

// coordsOnNode is cn's share of the total: an even split, with the
// remainder spread one-per-node from the front.
func (c Config) coordsOnNode(cn int) int {
	total := c.TotalCoordinators()
	n := total / c.CompNodes
	if cn < total%c.CompNodes {
		n++
	}
	return n
}

// PhaseStat aggregates the measured window of one scenario phase.
type PhaseStat struct {
	Phase    int    `json:"phase"` // 1-based, matching phase.<i> in the spec
	Attempts uint64 `json:"attempts"`
	Commits  uint64 `json:"commits"`
	Aborts   uint64 `json:"aborts"`
}

// AbortRate is aborts per attempt within the phase.
func (p PhaseStat) AbortRate() float64 {
	if p.Attempts == 0 {
		return 0
	}
	return float64(p.Aborts) / float64(p.Attempts)
}

// Result is one run's aggregated outcome.
type Result struct {
	*stats.Run
	System       SystemKind
	Workload     string
	Coordinators int
	HistoryErr   error
	// History is the recorded cell-level history when CheckHistory
	// was set (diagnostics).
	History *engine.History
	// Events is the number of scheduler dispatches the run consumed —
	// a deterministic measure of simulation size (same spec, same
	// count).
	Events uint64
	// WallMS is the real time the event loop took, in milliseconds.
	// Unlike every other field it is nondeterministic: it measures the
	// simulator, not the simulated system, and never feeds canonical
	// output.
	WallMS float64
	// ScenarioPhases breaks the measured window down by scenario phase
	// when the workload is scenario-driven (attempts are attributed to
	// the phase in which their transaction was first generated).
	ScenarioPhases []PhaseStat
	// Runtime is the window executor's introspection, populated only
	// for partitioned runs. Its wall-clock fields (busy time, barrier
	// waits) are nondeterministic; everything else is schedule-derived.
	Runtime *RuntimeInfo
}

// RuntimeInfo is one partitioned run's executor introspection: the
// simulator's window/mailbox counters plus the fabric's cross-partition
// verb traffic, per partition.
type RuntimeInfo struct {
	Sim *sim.RuntimeStats
	// Cross is, per partition, the verbs that partition posted whose
	// target region lives in another partition.
	Cross []rdma.Stats
	// Workers is the worker count the run executed with (invocation
	// level: it never affects any other field except wall-clock ones).
	Workers int
}

// System is the engine-facing surface the three implementations share.
// (Each package returns concrete compute-node types; these adapters
// unify them.)
type System interface {
	Name() string
	CreateTable(layout.Schema, int)
	Load(layout.TableID, layout.Key, [][]byte)
	FinishLoad() error
	NewComputeNode(id int) ComputeNode
}

// ComputeNode creates coordinators.
type ComputeNode interface {
	WarmCache()
	NewCoordinator(id int) engine.Coordinator
}

// PartitionedSystem is the capability a system adapter needs for
// partitioned runs: compute nodes bound to a partition view of the
// database (engine.DB.PartitionView). part/parts let engines with
// system-wide counters (CREST's transaction ids) switch to strided
// partition-local sequences.
type PartitionedSystem interface {
	NewPartitionComputeNode(id int, db *engine.DB, part, parts int) ComputeNode
}

type crestSys struct{ *core.System }

func (s crestSys) NewComputeNode(id int) ComputeNode { return crestCN{s.System.NewComputeNode(id)} }

func (s crestSys) NewPartitionComputeNode(id int, db *engine.DB, part, parts int) ComputeNode {
	return crestCN{s.System.NewPartitionComputeNode(id, db, part, parts)}
}

type crestCN struct{ *core.ComputeNode }

func (c crestCN) NewCoordinator(id int) engine.Coordinator { return c.ComputeNode.NewCoordinator(id) }

type fordSys struct{ *ford.System }

func (s fordSys) NewComputeNode(id int) ComputeNode { return fordCN{s.System.NewComputeNode(id)} }

func (s fordSys) NewPartitionComputeNode(id int, db *engine.DB, _, _ int) ComputeNode {
	return fordCN{s.System.NewPartitionComputeNode(id, db)}
}

type fordCN struct{ *ford.ComputeNode }

func (c fordCN) NewCoordinator(id int) engine.Coordinator { return c.ComputeNode.NewCoordinator(id) }

type motorSys struct{ *motor.System }

func (s motorSys) NewComputeNode(id int) ComputeNode { return motorCN{s.System.NewComputeNode(id)} }

func (s motorSys) NewPartitionComputeNode(id int, db *engine.DB, _, _ int) ComputeNode {
	return motorCN{s.System.NewPartitionComputeNode(id, db)}
}

type motorCN struct{ *motor.ComputeNode }

func (c motorCN) NewCoordinator(id int) engine.Coordinator { return c.ComputeNode.NewCoordinator(id) }

// NewSystem builds the configured system over db.
func NewSystem(kind SystemKind, db *engine.DB) (System, error) {
	switch kind {
	case CREST:
		return crestSys{core.New(db, core.DefaultOptions())}, nil
	case CRESTCell:
		return crestSys{core.New(db, core.CellOptions())}, nil
	case CRESTBase:
		return crestSys{core.New(db, core.BaseOptions())}, nil
	case FORD:
		return fordSys{ford.New(db)}, nil
	case Motor:
		return motorSys{motor.New(db)}, nil
	}
	return nil, fmt.Errorf("bench: unknown system %q", kind)
}

// PoolBytes estimates the per-node region size a workload needs under
// the largest layout (Motor's multi-versioned records), plus index,
// log and slack space.
func PoolBytes(defs []workload.TableDef, coordinators int) int {
	total := 0
	for _, def := range defs {
		s := def.Schema.Normalize()
		m := layout.NewMotorRecord(s).PaddedSize()
		if c := layout.NewRecord(s).Size(); c > m {
			m = c
		}
		total += def.Capacity * m
		total += def.Capacity * 48 // hash index entries with slack
	}
	total += coordinators * (80 << 10) // log segments
	total += 4 << 20                   // allocator slack
	return total
}

// Run executes one benchmark configuration and returns its metrics.
func Run(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	gen := cfg.Workload()
	defs := gen.Tables()

	totalCoords := cfg.TotalCoordinators()
	pol, err := placement.New(cfg.Placement)
	if err != nil {
		return Result{}, err
	}
	if hs, ok := pol.(*placement.Hotspot); ok {
		keys := cfg.HotKeys
		if len(keys) == 0 {
			if keys, err = probeHotKeys(cfg); err != nil {
				return Result{}, err
			}
		}
		hs.Seed(keys)
	}
	// A partitioned run builds one scheduler partition per shard group
	// (conservative lookahead = the fabric's one-way minimum); any
	// other run uses the classic sequential scheduler, byte-for-byte.
	parts := 0
	var world *sim.World
	var env *sim.Env
	if cfg.Partitioned(gen) {
		parts = cfg.Shards
		world = sim.NewWorld(cfg.Seed, parts, cfg.Params.Lookahead())
		world.SetWorkers(cfg.Workers)
		env = world.Env(0)
	} else {
		env = sim.NewEnv(cfg.Seed)
	}
	fabric := rdma.NewFabric(env, cfg.Params)
	pool, err := memnode.NewShardedPool(fabric, cfg.Shards, cfg.MemNodes, PoolBytes(defs, totalCoords), cfg.Replicas, pol)
	if err != nil {
		return Result{}, err
	}
	db := engine.NewDB(pool)
	// Flight captures only transactions that begin in the measurement
	// window.
	cfg.Flight.SetWarmup(sim.Time(cfg.Warmup))
	db.Attach(env, cfg.observers())
	if world != nil && cfg.Metrics != nil {
		registerWorldProbes(cfg.Metrics, world, fabric)
	}
	if cfg.CheckHistory {
		db.History = engine.NewHistory()
	}
	sys, err := NewSystem(cfg.System, db)
	if err != nil {
		return Result{}, err
	}
	for _, def := range defs {
		sys.CreateTable(def.Schema, def.Capacity)
	}
	gen.Load(sys.Load)
	if err := sys.FinishLoad(); err != nil {
		return Result{}, err
	}

	// Partition views are created after the load so their timestamp
	// oracles floor above every load-time draw.
	var views []*engine.DB
	var psys PartitionedSystem
	if parts > 0 {
		var ok bool
		if psys, ok = sys.(PartitionedSystem); !ok {
			return Result{}, fmt.Errorf("bench: system %q cannot run partitioned", cfg.System)
		}
		views = make([]*engine.DB, parts)
		for i := range views {
			views[i] = db.PartitionView(world.Env(i), i)
		}
	}

	res := Result{
		Run:          stats.NewRun(),
		System:       cfg.System,
		Workload:     gen.Name(),
		Coordinators: totalCoords,
	}
	retry := engine.DefaultRetryPolicy()
	stop := false
	verbs0 := fabric.Stats()

	// Scenario-driven runs modulate admission and key selection from
	// the virtual clock. Under a trivial timeline Gate is always zero
	// and NextAt is exactly Next, so this path adds no events and no
	// randomness to a plain run.
	timed, _ := gen.(workload.TimedGenerator)
	var scn *scenario.Spec
	if sg, ok := gen.(*scenario.Generator); ok {
		scn = sg.Spec()
		if len(scn.Timeline) > 0 {
			res.ScenarioPhases = make([]PhaseStat, len(scn.Timeline))
			for i := range res.ScenarioPhases {
				res.ScenarioPhases[i].Phase = i + 1
			}
		}
	}

	// Measurement accumulators: the sequential scheduler records into
	// the result directly; a partitioned run gives each partition its
	// own accumulator — recording never crosses partitions — and merges
	// them in partition order afterwards.
	runs := []*stats.Run{res.Run}
	phases := [][]PhaseStat{res.ScenarioPhases}
	if parts > 0 {
		runs = make([]*stats.Run, parts)
		phases = make([][]PhaseStat, parts)
		for i := range runs {
			runs[i] = stats.NewRun()
			if res.ScenarioPhases != nil {
				ph := make([]PhaseStat, len(res.ScenarioPhases))
				copy(ph, res.ScenarioPhases)
				phases[i] = ph
			}
		}
	}

	coordID := 0
	partSeq := make([]int, cfg.Shards)
	for cn := 0; cn < cfg.CompNodes; cn++ {
		part := 0
		var node ComputeNode
		penv := env
		if parts > 0 {
			// Every coordinator of one compute node lives in one
			// partition, so compute-node state (record caches, address
			// caches) stays single-threaded.
			part = cn % parts
			node = psys.NewPartitionComputeNode(cn, views[part], part, parts)
			penv = world.Env(part)
		} else {
			node = sys.NewComputeNode(cn)
		}
		node.WarmCache()
		prun, pph := runs[part], phases[part]
		for i := 0; i < cfg.coordsOnNode(cn); i++ {
			id := coordID
			if parts > 0 {
				// Strided coordinator ids keep each coordinator's log
				// in its own partition's shard group (the log home
				// group is id mod shards), so commits stay
				// partition-local.
				id = part + parts*partSeq[part]
				partSeq[part]++
			}
			coord := node.NewCoordinator(id)
			rank := coordID
			coordID++
			penv.Spawn(fmt.Sprintf("cn%d/coord%d", cn, i), func(p *sim.Proc) {
				for !stop {
					var txn *engine.Txn
					if timed != nil {
						// Park while the timeline gates this
						// coordinator; each wait lands on the next
						// decision point (phase boundary, burst edge,
						// or resolution grid tick).
						for {
							w := timed.Gate(p.Now(), rank, totalCoords)
							if w == 0 {
								break
							}
							p.Sleep(w)
							if stop {
								return
							}
						}
						txn = timed.NextAt(p.Now(), p.Rand())
					} else {
						txn = gen.Next(p.Rand())
					}
					start := p.Now()
					measured := start >= sim.Time(cfg.Warmup)
					var ps *PhaseStat
					if measured && pph != nil {
						ps = &pph[scn.PhaseAt(start)]
					}
					attempt := 0
					for {
						a := coord.Execute(p, txn)
						if measured {
							prun.RecordAttempt(a)
							if ps != nil {
								ps.Attempts++
								if !a.Committed {
									ps.Aborts++
								}
							}
						}
						if a.Committed {
							break
						}
						if stop {
							// Draining: give up on this transaction.
							return
						}
						if a.Reason == engine.AbortWait {
							// A release window is in progress; come
							// back shortly without escalating.
							p.Sleep(2*sim.Microsecond + sim.Duration(p.Rand().Int63n(int64(4*sim.Microsecond))))
							continue
						}
						attempt++
						p.Sleep(retry.Backoff(attempt, p.Rand()))
					}
					if measured {
						prun.RecordCommit(p.Now().Sub(start))
						if ps != nil {
							ps.Commits++
						}
					}
				}
			})
		}
	}

	deadline := sim.Time(cfg.Duration)
	wallStart := time.Now()
	if world != nil {
		if err := world.RunUntil(deadline); err != nil {
			return res, err
		}
		stop = true
		if err := world.Run(); err != nil { // drain in-flight transactions
			return res, err
		}
		res.Events = world.Dispatched()
	} else {
		if err := env.RunUntil(deadline); err != nil {
			return res, err
		}
		stop = true
		if err := env.Run(); err != nil { // drain in-flight transactions
			return res, err
		}
		res.Events = env.Dispatched()
	}
	res.WallMS = float64(time.Since(wallStart)) / float64(time.Millisecond)
	if parts > 0 {
		// Fold the per-partition accumulators in partition order — a
		// pure function of the simulation, independent of workers.
		for _, r := range runs {
			res.Run.Merge(r)
		}
		for _, ph := range phases {
			for j := range ph {
				res.ScenarioPhases[j].Attempts += ph[j].Attempts
				res.ScenarioPhases[j].Commits += ph[j].Commits
				res.ScenarioPhases[j].Aborts += ph[j].Aborts
			}
		}
		for _, v := range views {
			db.History.Absorb(v.History)
		}
	}
	if world != nil {
		ri := &RuntimeInfo{Sim: world.RuntimeStats(), Workers: world.Workers()}
		ri.Cross = make([]rdma.Stats, world.Parts())
		for i := range ri.Cross {
			ri.Cross[i] = fabric.CrossLaneStats(i)
		}
		res.Runtime = ri
	}
	res.Elapsed = cfg.Duration - cfg.Warmup
	res.Verbs = fabric.Stats().Sub(verbs0)
	if cfg.CheckHistory {
		res.HistoryErr = db.History.Check()
		res.History = db.History
	}
	return res, nil
}

// registerWorldProbes exports the window executor's schedule-derived
// introspection through the metrics registry of a partitioned metered
// run: per-partition dispatch/injection counters, mailbox high-water
// marks and cross-partition verb counts on each partition's shard
// registry, plus the world-wide window counters on partition 0's. Only
// schedule-derived values are registered — wall-clock timings (barrier
// waits, busy time) surface exclusively through Result.Runtime, so the
// metrics export stays byte-identical at any worker count.
func registerWorldProbes(reg *metrics.Registry, world *sim.World, fabric *rdma.Fabric) {
	parts := world.Parts()
	for i := 0; i < parts; i++ {
		part := i
		shard := reg.Shard(part, parts)
		label := fmt.Sprintf(`partition="%d"`, part)
		penv := world.Env(part)
		shard.CounterFunc("crest_sim_part_dispatches_total", label,
			"Events dispatched, by partition.",
			func() uint64 { return penv.Dispatched() })
		shard.CounterFunc("crest_sim_part_injected_total", label,
			"Cross-partition messages injected at barriers, by target partition.",
			func() uint64 { return world.PartInjected(part) })
		shard.GaugeFunc("crest_sim_part_mailbox_hwm", label,
			"Largest single-barrier incoming message batch, by partition.",
			func() int64 { return int64(world.PartMailboxHWM(part)) })
		shard.CounterFunc("crest_rdma_cross_part_verbs_total", label,
			"Verbs posted whose target region lives in another partition, by issuing partition.",
			func() uint64 { return fabric.CrossLaneStats(part).Total() })
	}
	shard0 := reg.Shard(0, parts)
	shard0.CounterFunc("crest_sim_windows_total", "",
		"Conservative time windows executed.", world.Windows)
	shard0.GaugeFunc("crest_sim_window_width_avg", "",
		"Mean window width in virtual time units (lookahead efficiency).",
		func() int64 { return int64(world.WindowWidthAvg()) })
}

// probeHotKeys derives a hotspot-placement seed when the caller gave
// none: it runs a short deterministic slice of the same workload under
// modulo placement with a causality recorder and pins the recorder's
// hottest keys (at most memnode.MaxShards of them) to shard group 0,
// colocating the hot set. The probe is a separate simulation with its
// own virtual clock, so it adds no events and no randomness to the
// measured run.
func probeHotKeys(cfg Config) ([]placement.HotKey, error) {
	probe := cfg
	probe.Placement = "modulo"
	probe.HotKeys = nil
	probe.Why = causality.NewRecorder(causality.Options{})
	probe.Trace = nil
	probe.Metrics = nil
	probe.Flight = nil
	probe.CheckHistory = false
	probe.Duration = 4 * sim.Millisecond
	probe.Warmup = sim.Millisecond
	if _, err := Run(probe); err != nil {
		return nil, fmt.Errorf("bench: hotspot placement probe: %w", err)
	}
	hs := probe.Why.Snapshot().Graph().Hotspots
	limit := memnode.MaxShards
	if len(hs) < limit {
		limit = len(hs)
	}
	keys := make([]placement.HotKey, 0, limit)
	for _, h := range hs[:limit] {
		keys = append(keys, placement.HotKey{Table: h.Table, Key: h.Key, Shard: 0})
	}
	return keys, nil
}

// CRESTSystem unwraps a System adapter into the concrete CREST engine
// when the run uses a CREST variant (for recovery and diagnostics).
func CRESTSystem(s System) (*core.System, bool) {
	cs, ok := s.(crestSys)
	if !ok {
		return nil, false
	}
	return cs.System, true
}
