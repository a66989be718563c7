package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"

	"crest"
	"crest/internal/bench"
	"crest/internal/engine"
	"crest/internal/sim"
	"crest/internal/workload"
)

// short returns a copy of workload s with a fifth of its virtual time,
// for tests that check structure rather than reference numbers.
func short(s *spec) *spec {
	c := *s
	base := s.base
	c.base = func(seed int64) bench.Config {
		cfg := base(seed)
		cfg.Duration /= 5
		cfg.Warmup /= 5
		return cfg
	}
	return &c
}

// TestMeteredRunsMatchPlain checks that the timing wrapper leaves every
// workload's schedule untouched, and that ycsb-observed still runs on
// the partitioned executor with two workers when wrapped.
func TestMeteredRunsMatchPlain(t *testing.T) {
	dir := t.TempDir()
	for i := range specs {
		s := short(&specs[i])
		t.Run(s.name, func(t *testing.T) {
			plain, err := runCall(s, 3, dir, callOpts{})
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			wrapped, err := runCall(s, 3, dir, callOpts{tr: tr})
			if err != nil {
				t.Fatal(err)
			}
			if wrapped.res.Events != plain.res.Events || wrapped.rec != plain.rec {
				t.Fatalf("wrapped run %+v differs from plain run %+v", wrapped.rec, plain.rec)
			}
			if tr.gen.nexts.Load() == 0 || tr.gen.loadSeconds() <= 0 {
				t.Fatalf("wrapper timed %d Next calls and %g s of Load", tr.gen.nexts.Load(), tr.gen.loadSeconds())
			}
			if s.name == "ycsb-observed" {
				for _, c := range []call{plain, wrapped} {
					if ri := c.res.Runtime; ri == nil || ri.Workers != 2 {
						t.Fatalf("run not partitioned on 2 workers: %+v", ri)
					}
				}
			}
		})
	}
}

// timedStub is a TimedGenerator over a real generator, for checking
// that the wrapper forwards the capability.
type timedStub struct{ workload.Generator }

func (g timedStub) NextAt(_ sim.Time, rng *rand.Rand) *engine.Txn { return g.Next(rng) }
func (timedStub) Gate(sim.Time, int, int) sim.Duration            { return 0 }

func TestMeterForwardsCapabilities(t *testing.T) {
	ycsb := findSpec("ycsb-observed").gen()
	tpcc := findSpec("tpcc-crest").gen()
	g, _ := meter(ycsb, nil)
	if !workload.IsPartitionSafe(g) {
		t.Error("wrapped YCSB generator lost PartitionSafe")
	}
	if _, ok := g.(workload.TimedGenerator); ok {
		t.Error("wrapped plain generator claims TimedGenerator")
	}
	if g, _ := meter(tpcc, nil); workload.IsPartitionSafe(g) {
		t.Error("wrapped TPC-C generator claims PartitionSafe")
	}
	g, m := meter(timedStub{ycsb}, nil)
	tg, ok := g.(workload.TimedGenerator)
	if !ok {
		t.Fatal("wrapped TimedGenerator lost the capability")
	}
	tg.NextAt(0, rand.New(rand.NewSource(1)))
	if m.nexts.Load() != 1 {
		t.Errorf("NextAt timed %d calls, want 1", m.nexts.Load())
	}
}

// TestMeterConcurrentNext calls the wrapper from several goroutines,
// as partition workers do; run it with -race.
func TestMeterConcurrentNext(t *testing.T) {
	spans := newSpanLog()
	g, m := meter(findSpec("ycsb-observed").gen(), spans)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				g.Next(rng)
			}
		}(int64(w))
	}
	wg.Wait()
	if n := m.nexts.Load(); n != 800 {
		t.Fatalf("timed %d Next calls, want 800", n)
	}
	if tot := spans.totals(); len(tot) != 1 || tot[0].Count != 800 {
		t.Fatalf("span totals %+v, want 800 workload.Next spans", tot)
	}
}

// TestSmallbankReference pins smallbank-hot at seed 1 to the crestbench
// CLI's reference output, and to the public API run with the CLI's
// flags.
func TestSmallbankReference(t *testing.T) {
	s := findSpec("smallbank-hot")
	c, err := runCall(s, smallbankReference.seed, t.TempDir(), callOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := smallbankReference.check(c.rec); err != nil {
		t.Fatal(err)
	}
	api, err := crest.RunBenchmark(crest.BenchmarkConfig{
		System: crest.SystemCREST, Workload: crest.WorkloadSmallBank, Theta: 0.99,
		Coordinators: 240, Duration: 20e6, Warmup: 4e6, Seed: 1, Quick: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if api.Events != c.rec.Events || api.Committed != c.rec.Commits || api.Aborted != c.rec.Aborts ||
		api.P999LatencyUs != c.rec.P999 || api.ThroughputKOPS != c.rec.KOPS {
		t.Fatalf("public API run %+v differs from the benchmark's %+v", api, c.rec)
	}
}

// TestReportedMetricsMatchBenchmarkJSON runs every (shortened) workload
// in both modes and checks that each reports exactly the metrics
// BENCHMARK.json declares, with their units, that the checks pass, and
// that the traced run's CPU shares sum to 1.
func TestReportedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if want := specNames(); !equalStrings(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, traced := range []bool{false, true} {
		want := decl.EndToEnd
		if traced {
			want = decl.PerLayer
		}
		for i := range specs {
			s := short(&specs[i])
			o := measure(s, 2, 0, traced, t.TempDir(), os.Stderr)
			if !o.correct() || o.attempted == 0 {
				t.Fatalf("%s traced=%v: %v (attempted %d)", s.name, traced, o.errs, o.attempted)
			}
			got := map[string]string{}
			cpu := 0.0
			for _, m := range o.metrics {
				got[m.name] = m.unit
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: %s = %v", s.name, m.name, m.value)
				}
				if len(m.name) > 9 && m.name[len(m.name)-9:] == ".cpu_frac" {
					cpu += m.value
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json declares %d", s.name, traced, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s reported with unit %q (present %v), declared %q", s.name, traced, m.Name, unit, ok, m.Unit)
				}
			}
			if traced && math.Abs(cpu-1) > 1e-9 {
				t.Errorf("%s: cpu_frac values sum to %v, want 1", s.name, cpu)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
