package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/workload"
)

// meteredGen is the workload.Generator timing wrapper of the traced
// run: it times Load and every Next and records each as a span. The
// harness discovers generator capabilities by type assertion, so the
// wrapper forwards them: PartitionSafe always (otherwise a partitioned
// workload silently falls back to the sequential scheduler), and
// TimedGenerator only when the wrapped generator is one (see meter).
// It is safe for concurrent use, as partitioned runs with several
// workers call Next from every worker.
type meteredGen struct {
	workload.Generator
	spans  *spanLog
	loadNS atomic.Int64
	nextNS atomic.Int64
	nexts  atomic.Int64
}

// meter wraps g. The returned generator is a TimedGenerator exactly
// when g is one; the second result exposes the wrapper's counters.
func meter(g workload.Generator, spans *spanLog) (workload.Generator, *meteredGen) {
	m := &meteredGen{Generator: g, spans: spans}
	if tg, ok := g.(workload.TimedGenerator); ok {
		return meteredTimedGen{m, tg}, m
	}
	return m, m
}

func (g *meteredGen) Load(fn func(layout.TableID, layout.Key, [][]byte)) {
	t0 := time.Now()
	g.Generator.Load(fn)
	t1 := time.Now()
	g.loadNS.Add(t1.Sub(t0).Nanoseconds())
	g.spans.add(g.spans.newID(), spanHarness, "workload.Load", t0, t1)
}

func (g *meteredGen) Next(rng *rand.Rand) *engine.Txn {
	t0 := time.Now()
	txn := g.Generator.Next(rng)
	g.timeNext(t0)
	return txn
}

func (g *meteredGen) timeNext(t0 time.Time) {
	t1 := time.Now()
	g.nextNS.Add(t1.Sub(t0).Nanoseconds())
	g.nexts.Add(1)
	g.spans.add(g.spans.newID(), spanHarness, "workload.Next", t0, t1)
}

// PartitionSafe forwards the wrapped generator's answer.
func (g *meteredGen) PartitionSafe() bool { return workload.IsPartitionSafe(g.Generator) }

// loadSeconds is the time spent in Load.
func (g *meteredGen) loadSeconds() float64 { return float64(g.loadNS.Load()) / 1e9 }

// nextMeanNS is the mean host time of one Next (or NextAt) call.
func (g *meteredGen) nextMeanNS() float64 {
	n := g.nexts.Load()
	if n == 0 {
		return 0
	}
	return float64(g.nextNS.Load()) / float64(n)
}

// meteredTimedGen is the wrapper of a TimedGenerator: NextAt is timed
// like Next, Gate is forwarded untimed.
type meteredTimedGen struct {
	*meteredGen
	timed workload.TimedGenerator
}

func (g meteredTimedGen) NextAt(now sim.Time, rng *rand.Rand) *engine.Txn {
	t0 := time.Now()
	txn := g.timed.NextAt(now, rng)
	g.timeNext(t0)
	return txn
}

func (g meteredTimedGen) Gate(now sim.Time, coord, total int) sim.Duration {
	return g.timed.Gate(now, coord, total)
}
