// Package metrics is the virtual-time metrics plane: a deterministic,
// nil-safe registry of counters, gauges and fixed-bucket log-linear
// histograms, plus a windowed time-series sampler that snapshots every
// instrument once per W virtual microseconds.
//
// Like tracing (internal/trace), metrics consume no virtual time and no
// randomness: nothing here spawns simulator processes, schedules
// events, or draws from the seeded source. Windows therefore cannot be
// closed by a timer; they close lazily — every instrument mutation
// first checks whether virtual time has crossed the next window
// boundary and, if so, seals every elapsed window before the mutation
// lands. Because every mutation performs this check, a sealed window
// holds exactly the mutations whose virtual timestamps fall inside it,
// and a metrics-enabled run is byte-identical to a disabled one.
//
// The registry follows the trace recorder's nil-safety contract: a nil
// *Registry returns nil instruments, and every method of a nil
// instrument is a no-op, so a disabled emission point costs exactly one
// pointer check. The mutation fast path (no window boundary crossed)
// allocates nothing; sealing a window appends one sample per instrument
// (amortized by slice doubling).
package metrics

import (
	"fmt"

	"crest/internal/shard"
	"crest/internal/sim"
)

// Kind classifies an instrument.
type Kind uint8

// The instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind (Prometheus TYPE names).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// DefaultWindow is the sampling window applied when a caller enables
// windowing without choosing one: 100 virtual microseconds, fine enough
// to resolve contention ramps in the paper's 20 ms runs and coarse
// enough that a full run stays a few hundred rows.
const DefaultWindow = 100 * sim.Microsecond

// MaxWindows bounds the number of sealed windows a registry retains.
// Past the bound, further windows are counted as dropped rather than
// stored, so a pathological window choice (1 ns windows over seconds of
// virtual time) degrades to truncation instead of unbounded memory.
const MaxWindows = 1 << 16

// Options configures a registry.
type Options struct {
	// Window is the sampling period in virtual time. Zero or negative
	// disables the time series: instruments still accumulate totals
	// (Prometheus export keeps working) but no per-window samples are
	// recorded.
	Window sim.Duration
}

// Registry owns a set of named instruments and their windowed samples.
// It is bound to one simulation environment (BindEnv) whose virtual
// clock drives the window boundaries. The cooperative scheduler
// serializes all mutations, so no locking is needed. A nil *Registry is
// the disabled state; every method tolerates it.
type Registry struct {
	clock  func() sim.Time
	window sim.Duration
	next   sim.Time // end of the currently open window

	insts  []*instrument
	byName map[string]*instrument

	times   []sim.Time // start time of each sealed window
	dropped uint64     // windows sealed past MaxWindows

	// Partition-registry mode (Shard): a root registry hands each
	// simulation partition its own child, bound to that partition's
	// clock and mutated only by its worker; the root's Snapshot merges
	// the family deterministically (series summed by identity, samples
	// added per window).
	fam shard.Family[Registry]
}

// instrument is the registry-side state shared by the typed handles.
type instrument struct {
	r      *Registry
	name   string
	labels string // Prometheus label pairs, e.g. `reason="validation"`
	help   string
	kind   Kind

	count  uint64 // counter value / histogram observation count
	gauge  int64  // gauge value
	sum    int64  // histogram sum of observed values
	bounds []int64
	bucket []uint64 // len(bounds)+1: last is the overflow (+Inf) bucket

	probeC func() uint64 // counter probe (sampled at seal/snapshot)
	probeG func() int64  // gauge probe

	samples []float64 // one per sealed window
	last    uint64    // counter/histogram value at the previous seal
}

// NewRegistry returns an empty registry. Bind it to an environment with
// BindEnv before the simulation runs; instruments may be created before
// or after binding.
func NewRegistry(opt Options) *Registry {
	return &Registry{
		window: opt.Window,
		byName: map[string]*instrument{},
	}
}

// BindEnv attaches the registry to env's virtual clock and registers
// the simulator's own instruments: runnable and live process gauges and
// the per-window dispatch counter. A registry is bound to exactly one
// environment for its lifetime; nil receivers no-op.
func (r *Registry) BindEnv(env *sim.Env) {
	if r == nil {
		return
	}
	r.clock = env.Now
	r.next = env.Now() + sim.Time(r.window)
	r.GaugeFunc("crest_sim_runnable_procs", "",
		"Simulated processes spawned and not parked on a wait queue.",
		func() int64 { return int64(env.Live() - env.Waiting()) })
	r.GaugeFunc("crest_sim_live_procs", "",
		"Simulated processes spawned and not yet finished.",
		func() int64 { return int64(env.Live()) })
	r.CounterFunc("crest_sim_dispatches_total", "",
		"Scheduler events dispatched (process wakeups and deferred calls).",
		env.Dispatched)
}

// Shard returns the child registry owned by partition part of parts
// (see shard.Family.Shard), with the root's window. Bind each child to
// its own partition's environment; the root's Snapshot merges the
// family — per-identity series sums, per-window sample sums — into one
// deterministic snapshot. A nil registry returns nil.
func (r *Registry) Shard(part, parts int) *Registry {
	if r == nil {
		return nil
	}
	return r.fam.Shard(r, part, parts, func(f shard.Family[Registry]) *Registry {
		return &Registry{window: r.window, byName: map[string]*instrument{}, fam: f}
	})
}

// Window reports the registry's sampling period (0 = series disabled).
func (r *Registry) Window() sim.Duration {
	if r == nil {
		return 0
	}
	return r.window
}

// key builds the registration key for (name, labels).
func key(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// register returns the instrument for (name, labels), creating it on
// first use. Registration is idempotent: a second registration with the
// same identity returns the first instrument (its kind must match).
func (r *Registry) register(name, labels, help string, kind Kind) *instrument {
	k := key(name, labels)
	if in := r.byName[k]; in != nil {
		if in.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %v (was %v)", k, kind, in.kind))
		}
		return in
	}
	in := &instrument{r: r, name: name, labels: labels, help: help, kind: kind}
	// Backfill zeros for windows sealed before this instrument existed,
	// so every series has one sample per sealed window.
	if n := len(r.times); n > 0 {
		in.samples = make([]float64, n)
	}
	r.insts = append(r.insts, in)
	r.byName[k] = in
	return in
}

// tick seals every window whose end has passed. It is the first thing
// every mutation does, so samples attribute to the window the mutation's
// virtual timestamp falls in.
func (r *Registry) tick() {
	if r.window <= 0 || r.clock == nil {
		return
	}
	if now := r.clock(); now >= r.next {
		r.seal(now)
	}
}

// seal closes every window with end ≤ now. Kept out of tick so the
// boundary check inlines into instrument mutations.
func (r *Registry) seal(now sim.Time) {
	for r.next <= now {
		if len(r.times) >= MaxWindows {
			r.dropped++
		} else {
			r.times = append(r.times, r.next-sim.Time(r.window))
			for _, in := range r.insts {
				in.sample()
			}
		}
		r.next += sim.Time(r.window)
	}
}

// sample appends the instrument's value for the window being sealed:
// counters and histograms record the delta since the previous seal,
// gauges their value at the boundary.
func (in *instrument) sample() {
	switch in.kind {
	case KindCounter:
		cur := in.count
		if in.probeC != nil {
			cur = in.probeC()
		}
		in.samples = append(in.samples, float64(cur-in.last))
		in.last = cur
	case KindGauge:
		cur := in.gauge
		if in.probeG != nil {
			cur = in.probeG()
		}
		in.samples = append(in.samples, float64(cur))
	case KindHistogram:
		in.samples = append(in.samples, float64(in.count-in.last))
		in.last = in.count
	}
}

// Counter is a monotonically increasing count. The nil *Counter is the
// disabled state.
type Counter struct{ in *instrument }

// Counter returns the counter for (name, labels), registering it on
// first use. Counter names should end in _total (Prometheus
// convention). A nil registry returns the nil (disabled) counter.
func (r *Registry) Counter(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{in: r.register(name, labels, help, KindCounter)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.in.r.tick()
	c.in.count += n
}

// Value reports the counter's running total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.in.count
}

// Gauge is an instantaneous value that can move both ways. The nil
// *Gauge is the disabled state.
type Gauge struct{ in *instrument }

// Gauge returns the gauge for (name, labels), registering it on first
// use. A nil registry returns the nil (disabled) gauge.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{in: r.register(name, labels, help, KindGauge)}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.in.r.tick()
	g.in.gauge += d
}

// Set pins the gauge to v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.in.r.tick()
	g.in.gauge = v
}

// Value reports the gauge's current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.in.gauge
}

// CounterFunc registers a probe counter: its running total is read from
// fn at every window seal and snapshot instead of being pushed. Probes
// cost the hot path nothing; they exist for values another subsystem
// already maintains (the scheduler's dispatch count).
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(name, labels, help, KindCounter).probeC = fn
}

// GaugeFunc registers a probe gauge, sampled from fn at every window
// seal and snapshot.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(name, labels, help, KindGauge).probeG = fn
}

// Histogram accumulates int64 observations into fixed, preallocated
// log-linear buckets. The nil *Histogram is the disabled state.
type Histogram struct{ in *instrument }

// Histogram returns the histogram for (name, labels), registering it on
// first use with the given bucket upper bounds (strictly increasing; an
// overflow bucket is implicit). Passing nil bounds uses
// LogLinearBounds(1, 1<<20, 2), which suits microsecond latencies.
// A nil registry returns the nil (disabled) histogram.
func (r *Registry) Histogram(name, labels, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	in := r.register(name, labels, help, KindHistogram)
	if in.bucket == nil {
		if bounds == nil {
			bounds = LogLinearBounds(1, 1<<20, 2)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %s bounds not increasing at %d", name, i))
			}
		}
		in.bounds = bounds
		in.bucket = make([]uint64, len(bounds)+1)
	}
	return &Histogram{in: in}
}

// LogLinearBounds builds log-linear bucket upper bounds: stepsPerOctave
// evenly spaced bounds within each power-of-two octave from min up to
// and including max (duplicates from integer truncation are dropped).
// With min=1, max=64, steps=2: 1 2 3 4 6 8 12 16 24 32 48 64.
func LogLinearBounds(min, max int64, stepsPerOctave int) []int64 {
	if min < 1 {
		min = 1
	}
	if stepsPerOctave < 1 {
		stepsPerOctave = 1
	}
	var out []int64
	for v := min; v <= max && v > 0; v *= 2 {
		for s := 0; s < stepsPerOctave; s++ {
			b := v + v*int64(s)/int64(stepsPerOctave)
			if b > max {
				b = max
			}
			if n := len(out); n == 0 || b > out[n-1] {
				out = append(out, b)
			}
		}
	}
	if n := len(out); n == 0 || out[n-1] < max {
		out = append(out, max)
	}
	return out
}

// Observe records one value. The bucket search is a hand-written binary
// search so the hot path stays closure- and allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	in := h.in
	in.r.tick()
	in.count++
	in.sum += v
	lo, hi := 0, len(in.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if in.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	in.bucket[lo]++
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.in.count
}

// Bucket is one histogram bucket in a snapshot: the cumulative count of
// observations ≤ Le (Le == math.MaxInt64 marks the overflow bucket,
// rendered as +Inf by the Prometheus exporter).
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"` // cumulative
}

// Series is one instrument's state in a snapshot.
type Series struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Help   string `json:"help,omitempty"`
	Kind   Kind   `json:"kind"`

	// Total is the instrument's value at snapshot time: the running
	// total for counters, the current value for gauges, the observation
	// count for histograms.
	Total float64 `json:"total"`
	// Sum is the histogram's sum of observed values (0 otherwise).
	Sum float64 `json:"sum,omitempty"`
	// Buckets is the histogram's cumulative bucket table (nil
	// otherwise).
	Buckets []Bucket `json:"buckets,omitempty"`

	// Samples holds one value per sealed window: per-window deltas for
	// counters and histograms (observation counts), the value at the
	// window boundary for gauges.
	Samples []float64 `json:"samples,omitempty"`
}

// ID renders the series' Prometheus identity, name{labels}.
func (s *Series) ID() string { return key(s.Name, s.Labels) }

// Snapshot is an immutable copy of a registry's instruments and sealed
// windows — the input to every exporter.
type Snapshot struct {
	// Window is the sampling period (0 when the series was disabled).
	Window sim.Duration `json:"window_ns"`
	// Times holds each sealed window's start, in virtual time.
	Times []sim.Time `json:"times_ns,omitempty"`
	// DroppedWindows counts windows sealed past MaxWindows.
	DroppedWindows uint64 `json:"dropped_windows,omitempty"`
	// Series lists every instrument in registration order.
	Series []Series `json:"series"`
}

// Snapshot seals every fully elapsed window, then copies the registry.
// A nil registry yields an empty snapshot. Sealing in Snapshot is what
// closes the tail windows of a run: windows otherwise seal lazily, on
// the first mutation past their boundary.
//
// On a sharded registry the snapshot is the deterministic merge of the
// root and every partition child: window start times come from the
// longest family member, series with the same identity merge in
// first-seen order (root first, then children in partition order) with
// totals, histogram buckets and per-window samples summed, and samples
// zero-pad to the merged window count. The merge is a pure function of
// the simulation, never of the worker count.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	children := r.fam.Children()
	if children == nil {
		return r.snapshotLocal()
	}
	parts := make([]*Snapshot, 0, 1+len(children))
	parts = append(parts, r.snapshotLocal())
	for _, c := range children {
		parts = append(parts, c.snapshotLocal())
	}
	return mergeSnapshots(r.window, parts)
}

// snapshotLocal copies one registry's own instruments, ignoring any
// partition children.
func (r *Registry) snapshotLocal() *Snapshot {
	s := &Snapshot{}
	if r.window > 0 && r.clock != nil {
		if now := r.clock(); now >= r.next {
			r.seal(now)
		}
	}
	s.Window = r.window
	s.DroppedWindows = r.dropped
	s.Times = append([]sim.Time(nil), r.times...)
	s.Series = make([]Series, 0, len(r.insts))
	for _, in := range r.insts {
		se := Series{
			Name:    in.name,
			Labels:  in.labels,
			Help:    in.help,
			Kind:    in.kind,
			Samples: append([]float64(nil), in.samples...),
		}
		switch in.kind {
		case KindCounter:
			cur := in.count
			if in.probeC != nil {
				cur = in.probeC()
			}
			se.Total = float64(cur)
		case KindGauge:
			cur := in.gauge
			if in.probeG != nil {
				cur = in.probeG()
			}
			se.Total = float64(cur)
		case KindHistogram:
			se.Total = float64(in.count)
			se.Sum = float64(in.sum)
			se.Buckets = make([]Bucket, len(in.bucket))
			cum := uint64(0)
			for i, c := range in.bucket {
				cum += c
				le := int64(1<<63 - 1)
				if i < len(in.bounds) {
					le = in.bounds[i]
				}
				se.Buckets[i] = Bucket{Le: le, Count: cum}
			}
		}
		s.Series = append(s.Series, se)
	}
	return s
}

// mergeSnapshots folds per-partition snapshots into one. Times come
// from the longest member (every member seals the same aligned window
// sequence, so a shorter one is a strict prefix); dropped-window counts
// take the maximum for the same reason. Series merge by identity in
// first-seen order with totals, sums, cumulative buckets and samples
// added; samples zero-pad to the merged window count so every series
// keeps one value per sealed window.
func mergeSnapshots(window sim.Duration, parts []*Snapshot) *Snapshot {
	out := &Snapshot{Window: window}
	for _, p := range parts {
		if len(p.Times) > len(out.Times) {
			out.Times = p.Times
		}
		if p.DroppedWindows > out.DroppedWindows {
			out.DroppedWindows = p.DroppedWindows
		}
	}
	idx := map[string]int{}
	for _, p := range parts {
		for i := range p.Series {
			se := &p.Series[i]
			j, ok := idx[se.ID()]
			if !ok {
				idx[se.ID()] = len(out.Series)
				out.Series = append(out.Series, *se)
				continue
			}
			dst := &out.Series[j]
			dst.Total += se.Total
			dst.Sum += se.Sum
			dst.Buckets = addBuckets(dst.Buckets, se.Buckets)
			dst.Samples = addSamples(dst.Samples, se.Samples)
		}
	}
	for i := range out.Series {
		for len(out.Series[i].Samples) < len(out.Times) {
			out.Series[i].Samples = append(out.Series[i].Samples, 0)
		}
	}
	return out
}

// addBuckets sums two cumulative bucket tables elementwise. The tables
// come from instruments registered with identical bounds; a missing
// side passes through unchanged.
func addBuckets(a, b []Bucket) []Bucket {
	if len(a) == 0 {
		return b
	}
	for i := range a {
		if i < len(b) {
			a[i].Count += b[i].Count
		}
	}
	return a
}

// addSamples sums two per-window sample vectors elementwise, extending
// to the longer one (windows are aligned from virtual time zero, so a
// shorter vector is a prefix).
func addSamples(a, b []float64) []float64 {
	if len(b) > len(a) {
		a, b = append(make([]float64, 0, len(b)), b...), a
	}
	for i := range b {
		a[i] += b[i]
	}
	return a
}

// Find returns the series with the given name and labels, or nil.
func (s *Snapshot) Find(name, labels string) *Series {
	id := key(name, labels)
	for i := range s.Series {
		if s.Series[i].ID() == id {
			return &s.Series[i]
		}
	}
	return nil
}
