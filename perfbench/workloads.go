package main

import (
	"crest/internal/bench"
	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
	"crest/internal/workload"
)

// coordinators is the closed-loop client count of every workload: 240
// simulated coordinators over the default 3 compute nodes, each
// starting its next transaction only after the previous one commits.
const coordinators = 240

// spec is one benchmark workload: a harness configuration built from
// the seed alone, plus how its run is checked and exported.
type spec struct {
	name string
	// base returns the configuration without observers; gen builds a
	// fresh generator for it.
	base func(seed int64) bench.Config
	gen  func() workload.Generator
	// observed runs attach all four observers and write their exports.
	observed bool
	// replicas is how many independent simulations, each with its own
	// seed (see replicaSeed), one run of the benchmark pools its virtual
	// metrics over. Hot-key contention makes a single simulation's
	// throughput and tails vary widely with the seed; pooling replicas
	// is the benchmark's way of measuring more work in a run.
	replicas int
}

var quick = bench.Quick()

var specs = []spec{
	// CREST on SmallBank θ=0.99, ROADMAP's reference run: hot-key lock
	// waits in core and process switching in sim dominate.
	{
		name: "smallbank-hot",
		gen:  quick.SmallBank(0.99),
		base: func(seed int64) bench.Config {
			return bench.Config{
				System:   bench.CREST,
				Duration: 20 * sim.Millisecond,
				Warmup:   4 * sim.Millisecond,
				Seed:     seed,
			}
		},
		replicas: 10,
	},
	// CREST on TPC-C: wide multi-table writes make the engine path and
	// allocation dominate. 30 warehouses rather than 40: at 40 the p999
	// sits on a gap in the latency distribution and flips across it
	// from seed to seed (see README.md).
	{
		name: "tpcc-crest",
		gen:  quick.TPCC(30),
		base: func(seed int64) bench.Config {
			return bench.Config{
				System:   bench.CREST,
				Duration: 2 * sim.Millisecond,
				Warmup:   500 * sim.Microsecond,
				Seed:     seed,
			}
		},
		replicas: 5,
	},
	// FORD on read-mostly YCSB, 4 shard groups on 2 workers, with all
	// four observers and their exports: no core code runs, and it is
	// the only load on the window executor and the observers.
	{
		name: "ycsb-observed",
		gen:  quick.YCSB(0.9, 0.05, 4),
		base: func(seed int64) bench.Config {
			return bench.Config{
				System:    bench.FORD,
				Shards:    4,
				Placement: "hash",
				Duration:  10 * sim.Millisecond,
				Warmup:    2 * sim.Millisecond,
				Seed:      seed,
				Workers:   2,
			}
		},
		observed: true,
		replicas: 1,
	},
}

// config returns the harness configuration for seed with gen as its
// generator factory; the fields every workload shares are set here.
func (s *spec) config(seed int64, gen func() workload.Generator) bench.Config {
	cfg := s.base(seed)
	cfg.Workload = gen
	cfg.MemNodes = 2
	cfg.Coordinators = coordinators
	return cfg
}

// replicaSeed is the seed of replica j of a run seeded with seed.
// Replica 0 is the seed itself, so seed 1 reproduces the crestbench
// reference run; the others come from a splitmix64 step, so runs with
// different seeds share no replica.
func replicaSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(j)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z>>1 == 0 {
		return 1
	}
	return int64(z >> 1)
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// observers are one run's recorders; all nil on unobserved workloads.
type observers struct {
	trace   *trace.Recorder
	metrics *metrics.Registry
	why     *causality.Recorder
	flight  *flight.Recorder
}

// attach creates every recorder the workload asks for, with the same
// defaults as the crestbench CLI, and wires them into cfg.
func (s *spec) attach(cfg *bench.Config) observers {
	if !s.observed {
		return observers{}
	}
	o := observers{
		trace:   trace.NewRecorder(0),
		metrics: metrics.NewRegistry(metrics.Options{Window: metrics.DefaultWindow}),
		why:     causality.NewRecorder(causality.Options{}),
		flight:  flight.NewRecorder(flight.Options{}),
	}
	cfg.Trace, cfg.Metrics, cfg.Why, cfg.Flight = o.trace, o.metrics, o.why, o.flight
	return o
}
