package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"crest"
	"crest/internal/flight"
	"crest/internal/stats"
)

// metric is one reported figure. q1/q3 and n describe the spread of a
// host metric's timed calls; samples and beyond describe a latency
// percentile's commits and how many lie above it.
type metric struct {
	name, unit string
	value      float64
	q1, q3     float64
	n          int
	samples    int
	beyond     int
}

// outcome is one workload's run: its metrics and every failed check.
type outcome struct {
	spec      *spec
	seed      int64
	traced    bool
	attempted uint64
	errs      []string
	metrics   []metric
	spans     []spanTotal
}

func (o *outcome) correct() bool { return len(o.errs) == 0 }

// failed counts failed operations. An aborted attempt is retried by the
// closed loop and shows in abort_rate, not here; a run that errs or
// fails a correctness check fails all of its attempts.
func (o *outcome) failed() uint64 {
	if o.correct() {
		return 0
	}
	if o.attempted == 0 {
		o.attempted = 1
	}
	return o.attempted
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) add(m metric) { o.metrics = append(o.metrics, m) }

// measure runs workload s: the correctness pass, timed harness calls
// until seconds have passed (at least minTimedCalls), and with traced
// the separate traced run.
func measure(s *spec, seed int64, seconds int, traced bool, outDir string, log io.Writer) *outcome {
	o := &outcome{spec: s, seed: seed, traced: traced}
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", s.name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		o.fail("%v", err)
		return o
	}

	fmt.Fprintf(log, "%s: correctness pass\n", s.name)
	want, budget, ok := o.correctnessPass(dir)
	if !ok {
		return o
	}

	fmt.Fprintf(log, "%s: timed calls over %d replica(s) for %d s\n", s.name, s.replicas, seconds)
	var calls []call
	start := time.Now()
	for i := 0; i < s.replicas || i < minTimedCalls || time.Since(start) < time.Duration(seconds)*time.Second; i++ {
		j := i % s.replicas
		c, err := runCall(s, replicaSeed(seed, j), dir, callOpts{})
		if err != nil {
			o.fail("timed call %d (replica %d): %v", i+1, j, err)
			return o
		}
		o.attempted += c.rec.Attempts
		switch {
		case j == 0 && c.rec != want:
			o.fail("timed call %d: virtual record %+v differs from the correctness pass's %+v", i+1, c.rec, want)
		case i >= s.replicas && c.rec != calls[j].rec:
			o.fail("timed call %d: replica %d's virtual record %+v differs from its first run's %+v", i+1, j, c.rec, calls[j].rec)
		}
		calls = append(calls, c)
	}
	sum := pool(calls[:s.replicas])

	if !traced {
		o.endToEnd(sum, calls)
		return o
	}
	fmt.Fprintf(log, "%s: traced run\n", s.name)
	tr := newTracer()
	tc, err := runCall(s, seed, dir, callOpts{tr: tr})
	if err != nil {
		o.fail("traced run: %v", err)
		return o
	}
	o.attempted += tc.rec.Attempts
	if tc.rec != want {
		o.fail("traced run: virtual record %+v differs from the correctness pass's %+v", tc.rec, want)
	}
	if err := tr.spans.writeFile(filepath.Join(dir, "spans.json")); err != nil {
		o.fail("writing spans: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), tr.profile.Bytes(), 0o644); err != nil {
		o.fail("writing CPU profile: %v", err)
	}
	o.spans = tr.spans.totals()
	stacks, err := parseProfile(tr.profile.Bytes())
	if err != nil {
		o.fail("traced run: %v", err)
		return o
	}
	o.perLayer(sum, calls, budget, tc, tr, foldModules(stacks))
	return o
}

// correctnessPass runs replica 0 with the serializability checker and
// the flight recorder on and applies the correctness checks: the
// checker, the partitioned executor where the workload asks for it,
// the exports' read-back and the pinned reference. It returns the
// pass's virtual record and flight budget shares; the pass's recorders
// and history go out of scope here, so they do not count in the timed
// calls' memory. ok is false when the pass could not run.
func (o *outcome) correctnessPass(dir string) (want record, budget []budgetShare, ok bool) {
	s, seed := o.spec, o.seed
	ref, err := runCall(s, seed, dir, callOpts{check: true})
	if err != nil {
		o.fail("correctness pass: %v", err)
		return record{}, nil, false
	}
	o.attempted += ref.rec.Attempts
	if ref.res.HistoryErr != nil {
		o.fail("history check: %v", ref.res.HistoryErr)
	}
	if ref.rec.Commits == 0 {
		o.fail("no transaction committed in the measured window")
	}
	if workers := s.base(seed).Workers; workers > 1 {
		if ri := ref.res.Runtime; ri == nil {
			o.fail("run was not partitioned")
		} else if ri.Workers != workers {
			o.fail("run used %d workers, want %d", ri.Workers, workers)
		}
	}
	if s.observed {
		if err := readBack(ref.obs, ref.exports); err != nil {
			o.fail("export read-back: %v", err)
		}
	}
	if s.name == "smallbank-hot" && seed == smallbankReference.seed {
		if err := smallbankReference.check(ref.rec); err != nil {
			o.fail("%v", err)
		}
	}
	return ref.rec, budgetShares(ref.obs.flight.Snapshot()), true
}

// readBack parses every export of a correctness pass with the public
// readers (the Chrome trace as plain JSON) and compares what it finds
// with a fresh snapshot of the recorder that wrote it.
func readBack(obs observers, exports []export) error {
	for _, e := range exports {
		data, err := os.ReadFile(e.path)
		if err != nil {
			return err
		}
		if int64(len(data)) != e.bytes {
			return fmt.Errorf("%s: %d bytes on disk, %d written", e.path, len(data), e.bytes)
		}
		r := bytes.NewReader(data)
		var got, want int
		switch e.module {
		case "trace":
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				return fmt.Errorf("%s: %w", e.path, err)
			}
			got = len(doc.TraceEvents)
			want = got // no reader to compare with: parsing is the check
		case "metrics":
			m, err := crest.ReadMetricsJSON(r)
			if err != nil {
				return fmt.Errorf("%s: %w", e.path, err)
			}
			snap := obs.metrics.Snapshot()
			got, want = len(m.Series)*len(m.Times), len(snap.Series)*len(snap.Times)
		case "causality":
			w, err := crest.ReadWhyJSON(r)
			if err != nil {
				return fmt.Errorf("%s: %w", e.path, err)
			}
			snap := obs.why.Snapshot()
			got, want = len(w.Txns)+len(w.Edges), len(snap.Txns)+len(snap.Edges)
		case "flight":
			f, err := crest.ReadFlightJSON(r)
			if err != nil {
				return fmt.Errorf("%s: %w", e.path, err)
			}
			snap := obs.flight.Snapshot()
			got, want = len(f.Txns)+len(f.Exemplars), len(snap.Txns)+len(snap.Exemplars)
		}
		if got != want || got == 0 {
			return fmt.Errorf("%s: read back %d items, recorder holds %d", e.path, got, want)
		}
	}
	return nil
}

// endToEnd adds the eight end-to-end metrics: host time and memory as
// medians of the timed calls, virtual figures pooled over the replicas.
func (o *outcome) endToEnd(sum summary, calls []call) {
	o.add(hostMetric("wall_s", "s", calls, func(c call) float64 { return c.wallS }))
	o.add(hostMetric("setup_s", "s", calls, func(c call) float64 { return c.setupS }))
	o.add(hostMetric("peak_rss_mb", "MB", calls, func(c call) float64 { return c.rssMB }))
	r := sum.run
	o.add(metric{name: "kops", unit: "kops", value: r.ThroughputKOPS()})
	o.add(metric{name: "abort_rate", unit: "ratio", value: r.AbortRate()})
	n := r.Lat.Count()
	for _, p := range []struct {
		name string
		pct  float64
	}{{"p50_us", 50}, {"p99_us", 99}, {"p999_us", 99.9}} {
		o.add(metric{name: p.name, unit: "us", value: r.Lat.Percentile(p.pct), samples: n, beyond: beyondRank(n, p.pct)})
	}
}

// summary is the replicas' virtual outcome pooled: counts summed,
// latency samples merged, virtual time added up.
type summary struct {
	run               *stats.Run
	events            uint64
	windows, widthSum uint64
	crossVerbs        uint64
}

func pool(calls []call) summary {
	sum := summary{run: stats.NewRun()}
	for _, c := range calls {
		res := c.res
		sum.run.Merge(res.Run)
		sum.run.Elapsed += res.Elapsed
		sum.run.Verbs = sum.run.Verbs.Add(res.Verbs)
		sum.events += res.Events
		if ri := res.Runtime; ri != nil {
			sum.windows += ri.Sim.Windows
			sum.widthSum += ri.Sim.WidthSum
			for _, c := range ri.Cross {
				sum.crossVerbs += c.Total()
			}
		}
	}
	return sum
}

// beyondRank is how many of n sorted samples lie above the
// nearest-rank p-th percentile (stats.Latencies.Percentile's rank).
func beyondRank(n int, p float64) int {
	rank := int(p/100*float64(n)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	return n - 1 - rank
}

// hostMetric is the median of f over the timed calls, with quartiles.
func hostMetric(name, unit string, calls []call, f func(call) float64) metric {
	v := make([]float64, len(calls))
	for i, c := range calls {
		v[i] = f(c)
	}
	q1, med, q3 := quartiles(v)
	return metric{name: name, unit: unit, value: med, q1: q1, q3: q3, n: len(v)}
}

// quartiles returns the first quartile, median and third quartile of
// v, interpolating between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// cpuModules are the modules whose CPU share the traced run reports,
// in report order; other.cpu_frac takes any module not listed.
var cpuModules = []string{
	"sim", "rdma", "engine", "core", "ford", "hashindex", "layout", "memnode",
	"placement", "workload", "stats", "bench",
	"trace", "metrics", "causality", "flight", runtimeModule,
}

// perLayer adds the per-layer metrics: CPU shares and generator timing
// from the traced run, host ratios as medians of the untraced timed
// calls, and the run's deterministic counts.
func (o *outcome) perLayer(sum summary, calls []call, budget []budgetShare, tc call, tr *tracer, shares map[string]float64) {
	listed := map[string]bool{}
	for _, m := range cpuModules {
		o.add(metric{name: m + ".cpu_frac", unit: "ratio", value: shares[m]})
		listed[m] = true
	}
	other := 0.0
	for m, share := range shares {
		if !listed[m] {
			other += share
		}
	}
	o.add(metric{name: "other.cpu_frac", unit: "ratio", value: other})

	r := sum.run
	o.add(metric{name: "workload.next_ns", unit: "ns", value: tr.gen.nextMeanNS()})
	o.add(metric{name: "workload.load_s", unit: "s", value: tr.gen.loadSeconds()})
	o.add(metric{name: "sim.events", unit: "count", value: float64(sum.events)})
	o.add(hostMetric("sim.ns_per_event", "ns", calls, func(c call) float64 { return c.loopS * 1e9 / float64(c.rec.Events) }))
	o.add(metric{name: "sim.windows", unit: "count", value: float64(sum.windows)})
	o.add(metric{name: "sim.window_width_avg_ns", unit: "ns", value: ratio(sum.widthSum, sum.windows)})
	o.add(hostMetric("sim.barrier_wait_frac", "ratio", calls, func(c call) float64 {
		if c.res.Runtime == nil || c.loopS == 0 {
			return 0
		}
		return float64(c.res.Runtime.Sim.BarrierWaitNS) / (c.loopS * 1e9)
	}))
	o.add(metric{name: "rdma.cross_part_verbs", unit: "count", value: float64(sum.crossVerbs)})
	attempts := r.Committed + r.Aborted
	o.add(metric{name: "rdma.verbs_per_commit", unit: "verbs", value: ratio(r.Verbs.Total(), r.Committed)})
	o.add(metric{name: "rdma.rtts_per_commit", unit: "rtts", value: ratio(r.Verbs.RTTs, r.Committed)})
	o.add(metric{name: "rdma.bytes_per_commit", unit: "B", value: ratio(r.Verbs.BytesRead+r.Verbs.BytesWrite, r.Committed)})
	o.add(metric{name: "engine.attempts", unit: "count", value: float64(attempts)})
	o.add(metric{name: "engine.commits", unit: "count", value: float64(r.Committed)})
	o.add(metric{name: "engine.attempts_per_commit", unit: "ratio", value: ratio(attempts, r.Committed)})
	o.add(metric{name: "engine.false_abort_rate", unit: "ratio", value: r.FalseAbortRate()})
	o.add(metric{name: "engine.exec_us", unit: "us", value: r.Phases.AvgExec()})
	o.add(metric{name: "engine.validate_us", unit: "us", value: r.Phases.AvgValidate()})
	o.add(metric{name: "engine.commit_us", unit: "us", value: r.Phases.AvgCommit()})
	o.add(hostMetric("bench.alloc_bytes_per_event", "B", calls, func(c call) float64 { return float64(c.allocBytes) / float64(c.rec.Events) }))
	o.add(hostMetric("bench.gc_cycles", "count", calls, func(c call) float64 { return float64(c.gcCycles) }))
	o.add(hostMetric("bench.cpu_s", "s", calls, func(c call) float64 { return c.cpuS }))
	o.add(hostMetric("bench.steal_frac", "ratio", calls, func(c call) float64 {
		return c.stealS / (c.wallS * float64(runtime.NumCPU()))
	}))
	for _, b := range budget {
		o.add(metric{name: "flight." + b.name + "_frac", unit: "ratio", value: b.share})
	}
	for i, mod := range []string{"trace", "metrics", "causality", "flight"} {
		exp := func(c call) *export {
			if i < len(c.exports) {
				return &c.exports[i]
			}
			return nil
		}
		o.add(hostMetric(mod+".export_s", "s", calls, func(c call) float64 {
			if e := exp(c); e != nil {
				return e.seconds
			}
			return 0
		}))
		o.add(hostMetric(mod+".export_mb", "MB", calls, func(c call) float64 {
			if e := exp(c); e != nil {
				return float64(e.bytes) / 1e6
			}
			return 0
		}))
	}
	wall := hostMetric("wall_s", "s", calls, func(c call) float64 { return c.wallS }).value
	o.add(metric{name: "trace_overhead_frac", unit: "ratio", value: (tc.wallS - wall) / wall})
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// budgetShare is one flight budget group's share of committed latency.
type budgetShare struct {
	name  string
	share float64
}

// budgetShares sums the committed transactions' additive budgets into
// five groups — queue, backoff, wire (every verb class), lock-wait and
// compute (every phase residual) — as shares of their total.
func budgetShares(s *flight.Snapshot) []budgetShare {
	groups := []struct {
		name     string
		from, to flight.Component // inclusive
	}{
		{"queue", flight.CompQueue, flight.CompQueue},
		{"backoff", flight.CompBackoff, flight.CompBackoff},
		{"wire", flight.CompWireRead, flight.CompWireMixed},
		{"lockwait", flight.CompWait, flight.CompWait},
		{"compute", flight.CompExec, flight.CompRelease},
	}
	var sum [flight.NumComponents]float64
	var total float64
	for i := range s.Txns {
		t := &s.Txns[i]
		if !t.Committed {
			continue
		}
		for c, d := range t.Budget {
			sum[c] += float64(d)
			total += float64(d)
		}
	}
	out := make([]budgetShare, len(groups))
	for i, g := range groups {
		out[i].name = g.name
		for c := g.from; c <= g.to; c++ {
			if total > 0 {
				out[i].share += sum[c] / total
			}
		}
	}
	return out
}
