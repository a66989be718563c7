// Package rdma simulates a one-sided RDMA fabric between compute
// nodes and memory nodes.
//
// The real system (and the paper's testbed) uses 100 Gbps InfiniBand
// NICs and the vendor masked-compare-and-swap experimental verb. This
// package substitutes a latency/bandwidth model on top of the
// deterministic simulator in internal/sim while preserving exactly the
// properties the protocols rely on:
//
//   - one-sided verbs: READ, WRITE, CAS and masked-CAS execute against
//     a memory node's registered region without remote CPU involvement;
//   - atomicity: a verb (and a whole doorbell batch) applies at one
//     instant of virtual time, so CAS semantics are exact;
//   - delivery order: the verbs of one batch apply in posted order,
//     which CREST's commit sequence (§4.2 of the paper) depends on;
//   - doorbell batching: a batch of verbs to one node costs a single
//     round-trip.
//
// Each round-trip parks the issuing process exactly once: the verbs
// apply at the virtual midpoint of the round-trip via a deferred call
// (sim.Env.CallAt) while the process stays parked until the completion
// instant. The apply instant, posted order, atomicity and tie-breaking
// against other processes are identical to parking twice — only the
// parks, and so the process switches, per round-trip are halved.
//
// Every verb and round-trip is counted, which is how the Table 2
// experiment (RDMA operations per transaction) is regenerated.
package rdma

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/observe"
	"crest/internal/sim"
	"crest/internal/trace"
)

// Params configures the latency model of a fabric.
type Params struct {
	// RTT is the base round-trip time of a verb or batch. The paper
	// quotes ~2µs for RDMA communication latency.
	RTT sim.Duration
	// GbpsBandwidth is the link bandwidth used to charge payload
	// serialization time on top of RTT.
	GbpsBandwidth float64
	// PerOp is additional NIC processing time charged per verb in a
	// batch (doorbell batching amortizes the round-trip, not the
	// per-WQE work).
	PerOp sim.Duration
	// JitterPct, if positive, widens each round-trip by a uniformly
	// random factor in the half-open interval [0, JitterPct/100): the
	// factor is Rand.Float64()*JitterPct/100, so the lower bound is
	// attainable and the upper bound is not. Jitter keeps coordinators
	// from running in lockstep; it is drawn from the environment's
	// seeded source, so runs stay reproducible.
	JitterPct float64
	// CopyResults, if true, makes every READ completion allocate a
	// private copy of the fetched bytes, the behaviour real verbs give
	// a caller that owns its receive buffers. When false (the default,
	// and what every engine in this repository assumes) READ payloads
	// are served from a reused scratch arena: callers must parse or
	// copy Result.Data before posting again or parking. Set it for
	// code that retains fetched buffers across round-trips.
	CopyResults bool
}

// DefaultParams matches the paper's testbed figures: 2µs RTT on a
// 100 Gbps fabric.
func DefaultParams() Params {
	return Params{
		RTT:           2 * sim.Microsecond,
		GbpsBandwidth: 100,
		PerOp:         60 * sim.Nanosecond,
		JitterPct:     10,
	}
}

// OpKind identifies a one-sided verb.
type OpKind uint8

// The supported one-sided verbs.
const (
	OpRead OpKind = iota
	OpWrite
	OpCAS
	OpMaskedCAS
)

// String returns the verb's conventional name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpCAS:
		return "CAS"
	case OpMaskedCAS:
		return "masked-CAS"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one verb in a doorbell batch.
type Op struct {
	Kind OpKind
	Off  uint64 // offset within the target region
	Len  int    // READ: bytes to fetch
	Data []byte // WRITE: payload

	// CAS / masked-CAS operands. The atomics operate on the 8-byte
	// little-endian word at Off. For masked-CAS only the bits set in
	// Mask participate in both the comparison and the swap, matching
	// the ConnectX extended-atomics verb the paper uses for per-cell
	// lock bits.
	Compare uint64
	Swap    uint64
	Mask    uint64
}

// Result is the completion of one Op.
type Result struct {
	// Data holds a READ's fetched bytes. Unless Params.CopyResults is
	// set it aliases a reused scratch arena: it is valid until the
	// issuing process posts again or parks, so parse or copy it
	// immediately.
	Data []byte
	Old  uint64 // CAS/masked-CAS: the prior word value
	OK   bool   // CAS/masked-CAS: whether the swap applied
}

// Stats counts fabric activity. Engines snapshot and diff it to report
// per-transaction and per-phase verb counts.
type Stats struct {
	Reads       uint64
	Writes      uint64
	CASes       uint64
	MaskedCASes uint64
	RTTs        uint64
	BytesRead   uint64
	BytesWrite  uint64
}

// Total returns the total number of verbs issued.
func (s Stats) Total() uint64 { return s.Reads + s.Writes + s.CASes + s.MaskedCASes }

// Sub returns s minus t, for diffing snapshots.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:       s.Reads - t.Reads,
		Writes:      s.Writes - t.Writes,
		CASes:       s.CASes - t.CASes,
		MaskedCASes: s.MaskedCASes - t.MaskedCASes,
		RTTs:        s.RTTs - t.RTTs,
		BytesRead:   s.BytesRead - t.BytesRead,
		BytesWrite:  s.BytesWrite - t.BytesWrite,
	}
}

// Add returns s plus t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Reads:       s.Reads + t.Reads,
		Writes:      s.Writes + t.Writes,
		CASes:       s.CASes + t.CASes,
		MaskedCASes: s.MaskedCASes + t.MaskedCASes,
		RTTs:        s.RTTs + t.RTTs,
		BytesRead:   s.BytesRead + t.BytesRead,
		BytesWrite:  s.BytesWrite + t.BytesWrite,
	}
}

// Fabric is the interconnect: it owns the latency model, the registered
// memory regions and the verb counters.
//
// On a partitioned simulation (sim.World) the fabric is the only seam
// crossing partitions: regions belong to the partition of their memory
// node's shard group, and a verb batch posted at a region owned by
// another partition applies there via a cross-partition deferred call
// at the round-trip midpoint, while the issuing process resumes in its
// own partition at the completion instant. Every per-post mutable
// resource (verb counters, descriptor pools) is striped into per-
// partition lanes so partitions share nothing on the hot path; a
// single-partition fabric has exactly one lane and behaves bit-for-bit
// like the pre-partitioned implementation.
type Fabric struct {
	env     *sim.Env
	world   *sim.World // nil when env is standalone
	params  Params
	regions []*Region
	lanes   []*lane
	nextQP  int64 // atomic: queue pairs may be connected from any partition
}

// lane is one partition's slice of the fabric: its scheduler, verb
// counters, observer handles and recycled descriptors. Only code
// running in the lane's partition touches it, so attached probes stay
// lock-free under the parallel window executor.
type lane struct {
	env     *sim.Env
	stats   Stats
	cross   Stats // verbs this lane posted that applied in other partitions
	rec     *trace.Recorder
	fl      *flight.Recorder
	met     *fabricMetrics
	free    []*pending  // recycled in-flight descriptors
	subFree []*applySub // recycled cross-partition apply descriptors
}

// SetObservers attaches the fabric's observers, replacing any attached
// before; a nil observer is off. With a trace recorder every subsequent
// verb emits issue/complete events and every batch an RTT event. With a
// metrics registry every post moves the fabric gauges and counters;
// regions registered before or after the call both get per-node
// instruments. With a flight recorder every post charges its park time
// (one round-trip per post, classified by verb) to the transaction
// running on the posting process. None of them consumes virtual time.
// On a partitioned fabric each lane records into its own partition
// shard of every observer (observe.Set.Shard), so emission stays
// partition-local and the run may execute on any number of workers;
// the observers merge deterministically at snapshot time.
func (f *Fabric) SetObservers(obs observe.Set) {
	for i, l := range f.lanes {
		o := obs.Shard(i, len(f.lanes))
		l.rec, l.fl, l.met = o.Trace, o.Flight, nil
		if o.Metrics != nil {
			l.met = newFabricMetrics(o.Metrics, f.regions)
		}
	}
}

// classOfKind maps a verb to its flight wire class.
func classOfKind(k OpKind) flight.VerbClass {
	switch k {
	case OpRead:
		return flight.ClassRead
	case OpWrite:
		return flight.ClassWrite
	case OpCAS:
		return flight.ClassCAS
	case OpMaskedCAS:
		return flight.ClassMaskedCAS
	}
	return flight.ClassMixed
}

// classOfOps classifies a batch: the verbs' common class, or Mixed.
func classOfOps(ops []Op) flight.VerbClass {
	c := classOfKind(ops[0].Kind)
	for i := 1; i < len(ops); i++ {
		if classOfKind(ops[i].Kind) != c {
			return flight.ClassMixed
		}
	}
	return c
}

// wireClass classifies a whole post (single batch or multi-batch).
func (d *pending) wireClass() flight.VerbClass {
	if d.qp != nil {
		return classOfOps(d.ops)
	}
	c := classOfOps(d.batches[0].Ops)
	for _, b := range d.batches[1:] {
		if classOfOps(b.Ops) != c {
			return flight.ClassMixed
		}
	}
	return c
}

// fabricMetrics is the fabric's instrument bundle: in-flight verbs,
// per-verb and per-node counters, and doorbell batch shape histograms.
// All counting happens at post time (requested sizes), mirroring the
// Stats counters a successful batch accrues.
type fabricMetrics struct {
	reg        *metrics.Registry
	inflight   *metrics.Gauge
	rtts       *metrics.Counter
	verbs      [4]*metrics.Counter // indexed by OpKind
	bytesRead  *metrics.Counter
	bytesWrite *metrics.Counter
	batchOps   *metrics.Histogram
	batchBytes *metrics.Histogram
	nodeVerbs  []*metrics.Counter // indexed by region id
	nodeBytes  []*metrics.Counter
}

// newFabricMetrics registers the fabric instrument bundle on reg.
func newFabricMetrics(reg *metrics.Registry, regions []*Region) *fabricMetrics {
	fm := &fabricMetrics{reg: reg}
	fm.inflight = reg.Gauge("crest_rdma_inflight_verbs", "",
		"One-sided verbs posted and not yet completed.")
	fm.rtts = reg.Counter("crest_rdma_rtts_total", "",
		"Doorbell-batch round trips issued.")
	for k := OpRead; k <= OpMaskedCAS; k++ {
		fm.verbs[k] = reg.Counter("crest_rdma_verbs_total",
			`verb="`+k.String()+`"`, "One-sided verbs posted, by verb.")
	}
	fm.bytesRead = reg.Counter("crest_rdma_read_bytes_total", "",
		"Payload bytes requested by READ verbs.")
	fm.bytesWrite = reg.Counter("crest_rdma_write_bytes_total", "",
		"Payload bytes carried by WRITE verbs.")
	fm.batchOps = reg.Histogram("crest_rdma_batch_ops", "",
		"Verbs per doorbell batch.", metrics.LogLinearBounds(1, 64, 2))
	fm.batchBytes = reg.Histogram("crest_rdma_batch_bytes", "",
		"Payload bytes per doorbell batch.", metrics.LogLinearBounds(8, 1<<16, 2))
	for _, r := range regions {
		fm.addNode(r)
	}
	return fm
}

// addNode registers the per-node counters for region r.
func (fm *fabricMetrics) addNode(r *Region) {
	label := `node="` + r.name + `",id="` + strconv.Itoa(r.id) + `"`
	fm.nodeVerbs = append(fm.nodeVerbs, fm.reg.Counter(
		"crest_rdma_node_verbs_total", label, "One-sided verbs posted, by target node."))
	fm.nodeBytes = append(fm.nodeBytes, fm.reg.Counter(
		"crest_rdma_node_bytes_total", label, "Payload bytes posted, by target node."))
}

// post counts one doorbell batch at issue time.
func (fm *fabricMetrics) post(qp *QP, ops []Op) {
	fm.inflight.Add(int64(len(ops)))
	fm.rtts.Inc()
	fm.batchOps.Observe(int64(len(ops)))
	fm.batchBytes.Observe(int64(batchPayload(ops)))
	node := qp.region.id
	for i := range ops {
		op := &ops[i]
		fm.verbs[op.Kind].Inc()
		b := uint64(opBytes(op))
		switch op.Kind {
		case OpRead:
			fm.bytesRead.Add(b)
		case OpWrite:
			fm.bytesWrite.Add(b)
		}
		fm.nodeVerbs[node].Inc()
		fm.nodeBytes[node].Add(b)
	}
}

// complete retires a batch's verbs from the in-flight gauge at the
// completion instant.
func (fm *fabricMetrics) complete(ops []Op) {
	fm.inflight.Add(-int64(len(ops)))
}

// NewFabric creates a fabric on env with the given latency parameters.
// When env belongs to a sim.World, the fabric stripes itself into one
// lane per partition and supports cross-partition posts; the world's
// lookahead must not exceed params.Lookahead().
func NewFabric(env *sim.Env, params Params) *Fabric {
	if params.RTT <= 0 {
		panic("rdma: Params.RTT must be positive")
	}
	if params.GbpsBandwidth <= 0 {
		panic("rdma: Params.GbpsBandwidth must be positive")
	}
	f := &Fabric{env: env, params: params}
	if w := env.World(); w != nil && w.Parts() > 1 {
		if w.Lookahead() > params.Lookahead() {
			panic(fmt.Sprintf("rdma: world lookahead %v exceeds fabric one-way minimum %v",
				w.Lookahead(), params.Lookahead()))
		}
		f.world = w
		f.lanes = make([]*lane, w.Parts())
		for i := range f.lanes {
			f.lanes[i] = &lane{env: w.Env(i)}
		}
	} else {
		f.lanes = []*lane{{env: env}}
	}
	return f
}

// Lookahead is the minimum one-way latency of any verb: the base RTT's
// midpoint. Payload, per-op cost and jitter are strictly additive, so
// no batch can apply at a memory node earlier than this after it was
// posted — which makes it a safe conservative lookahead for
// partitioning the simulation along the fabric.
func (p Params) Lookahead() sim.Duration { return p.RTT / 2 }

// Stats returns a snapshot of the fabric counters, summed over lanes.
func (f *Fabric) Stats() Stats {
	s := f.lanes[0].stats
	for _, l := range f.lanes[1:] {
		s = s.Add(l.stats)
	}
	return s
}

// LaneStats returns partition part's verb counters: the verbs posted
// by processes running in that partition. On a single-partition fabric
// it equals Stats. Engines diff it per attempt so the measurement
// stays partition-local (and therefore deterministic) under parallel
// execution.
func (f *Fabric) LaneStats(part int) Stats { return f.lanes[part].stats }

// CrossLaneStats returns the verbs partition part posted that applied
// in other partitions (already included in LaneStats): the traffic that
// crossed the fabric's partition seam. Schedule-derived, so it is
// identical at any worker count.
func (f *Fabric) CrossLaneStats(part int) Stats { return f.lanes[part].cross }

// Lanes returns the number of partition lanes.
func (f *Fabric) Lanes() int { return len(f.lanes) }

// laneOf returns the lane of the partition that p runs in.
func (f *Fabric) laneOf(p *sim.Proc) *lane { return f.lanes[p.Env().Part()] }

// Params returns the fabric's latency parameters.
func (f *Fabric) Params() Params { return f.params }

// Region is a registered memory region on a memory node, addressed by
// byte offset from compute nodes.
type Region struct {
	fabric *Fabric
	id     int
	part   int // owning partition: verbs against the region apply there
	name   string
	buf    []byte
	failed bool
}

// Register allocates and registers a memory region of size bytes,
// owned by partition 0.
func (f *Fabric) Register(name string, size int) *Region {
	return f.RegisterAt(name, size, 0)
}

// RegisterAt allocates and registers a memory region owned by
// partition part: verbs posted from other partitions apply at the
// region through the cross-partition seam. On a single-partition
// fabric part must be 0.
func (f *Fabric) RegisterAt(name string, size, part int) *Region {
	if part < 0 || part >= len(f.lanes) {
		panic(fmt.Sprintf("rdma: RegisterAt partition %d of %d", part, len(f.lanes)))
	}
	r := &Region{fabric: f, id: len(f.regions), part: part, name: name, buf: make([]byte, size)}
	f.regions = append(f.regions, r)
	for _, l := range f.lanes {
		if l.met != nil {
			l.met.addNode(r)
		}
	}
	return r
}

// Part returns the partition owning the region.
func (r *Region) Part() int { return r.part }

// ID returns the region's registration index.
func (r *Region) ID() int { return r.id }

// Name returns the region's label.
func (r *Region) Name() string { return r.name }

// Size returns the region's length in bytes.
func (r *Region) Size() int { return len(r.buf) }

// Fail marks the region's memory node as crashed: subsequent verbs
// against it return an error. Used by recovery tests.
func (r *Region) Fail() { r.failed = true }

// Recover clears the crashed state.
func (r *Region) Recover() { r.failed = false }

// Failed reports whether the region's node is marked crashed.
func (r *Region) Failed() bool { return r.failed }

// Bytes exposes the raw region for loading and for recovery tooling.
// Protocol code must not touch it; it bypasses the fabric.
func (r *Region) Bytes() []byte { return r.buf }

// QP is a queue pair from one coordinator to one memory region.
// Distinct simulated processes may share a QP (the public API
// round-robins transactions over coordinators), but each in-flight
// post owns its own descriptor, so sharing is safe as long as every
// caller consumes its results before posting again or parking.
type QP struct {
	fabric *Fabric
	region *Region
	id     int
}

// Connect creates a queue pair targeting region r. The connection
// counter is atomic because engines may connect lazily from any
// partition; the id feeds only trace output, never the simulation
// schedule. (Engines connect eagerly at load time, before partitions
// run concurrently, so traced ids are stable in practice.)
func (f *Fabric) Connect(r *Region) *QP {
	if r.fabric != f {
		panic("rdma: Connect across fabrics")
	}
	return &QP{fabric: f, region: r, id: int(atomic.AddInt64(&f.nextQP, 1))}
}

// Region returns the queue pair's target region.
func (qp *QP) Region() *Region { return qp.region }

// ID returns the queue pair's connection index (1-based, per fabric).
func (qp *QP) ID() int { return qp.id }

// latency returns the virtual time one batch costs, drawing jitter
// from rng — the issuing partition's stream, so parallel partitions
// never contend on (or nondeterministically interleave) one source.
func (f *Fabric) latency(rng *rand.Rand, payload int, ops int) sim.Duration {
	d := f.params.RTT + sim.Duration(ops)*f.params.PerOp
	if payload > 0 {
		ns := float64(payload*8) / f.params.GbpsBandwidth // bits / (Gbps) = ns
		d += sim.Duration(ns)
	}
	if f.params.JitterPct > 0 {
		d += sim.Duration(rng.Float64() * f.params.JitterPct / 100 * float64(d))
	}
	return d
}

// opBytes returns the payload bytes one verb is charged for.
func opBytes(op *Op) int {
	switch op.Kind {
	case OpRead:
		return op.Len
	case OpWrite:
		return len(op.Data)
	}
	return 8
}

// posted reports one batch issued on the lane to its observer shards:
// per-verb trace issue events and the fabric metrics' post counts.
func (l *lane) posted(p *sim.Proc, qp *QP, ops []Op) {
	if l.rec != nil {
		s := trace.SpanOf(p)
		for i := range ops {
			l.rec.VerbIssue(p.Now(), s, ops[i].Kind.String(), qp.id, qp.region.id, opBytes(&ops[i]))
		}
	}
	if l.met != nil {
		l.met.post(qp, ops)
	}
}

// completed reports one batch completing: the trace's round-trip and
// per-verb completions, each charged the whole batch latency (doorbell
// batching amortizes the round-trip across the verbs, not the other
// way around), and the in-flight gauge. Flight charges the park once
// per post, not per batch, so posts report it separately.
func (l *lane) completed(p *sim.Proc, qp *QP, ops []Op, lat sim.Duration) {
	if l.rec != nil {
		s := trace.SpanOf(p)
		l.rec.RTT(p.Now(), s, qp.id, qp.region.id, len(ops), batchPayload(ops), lat)
		for i := range ops {
			l.rec.VerbComplete(p.Now(), s, ops[i].Kind.String(), qp.id, qp.region.id, opBytes(&ops[i]), lat)
		}
	}
	if l.met != nil {
		l.met.complete(ops)
	}
}

func batchPayload(ops []Op) int {
	n := 0
	for i := range ops {
		switch ops[i].Kind {
		case OpRead:
			n += ops[i].Len
		case OpWrite:
			n += len(ops[i].Data)
		case OpCAS, OpMaskedCAS:
			n += 8
		}
	}
	return n
}

// pending is one in-flight round-trip: the state its deferred midpoint
// call needs to apply the verbs and resume the issuing process, plus
// the scratch that backs the post's results. The descriptor is owned
// exclusively by one post from issue until completion, so results stay
// intact even when several processes share a queue pair; they are
// reused only after the issuer has had a chance to consume them (it
// must do so before posting again or parking). Descriptors are
// recycled through Fabric.free — the cooperative scheduler runs one
// process at a time, so the freelist needs no locking, and fire is
// bound once so a post allocates no closure.
type pending struct {
	f        *Fabric
	lane     *lane // issuing partition's lane (owns the descriptor)
	proc     *sim.Proc
	qp       *QP  // single-batch post (nil for PostMulti)
	ops      []Op // single-batch post
	batches  []Batch
	res      []Result
	err      error
	resumeAt sim.Time
	fire     func() // pre-bound (*pending).run
	wake     func() // pre-bound (*pending).resume, for cross-partition posts

	op1      [1]Op      // single-verb scratch for the convenience wrappers
	out      [][]Result // PostMulti result scratch, reused
	resBuf   []Result   // Result scratch carved by the apply step, reused
	arena    []byte     // READ payload scratch, reused
	resLen   int
	arenaLen int

	// Cross-partition post state: one applySub per distinct target
	// partition, and a per-batch error slot filled by the subs.
	subs      []*applySub
	batchErrs []error
}

// applySub is the target-partition half of one cross-partition post:
// the batches owned by one partition, with pre-carved result and arena
// destinations, applied at the round-trip midpoint by the target's
// scheduler. Stats accrue locally in the sub and are folded into the
// issuing lane at the completion instant — one window later, after the
// barrier — so no counter is ever touched by two partitions at once.
type applySub struct {
	stats   Stats
	batches []subBatch
	fire    func() // pre-bound (*applySub).run
}

type subBatch struct {
	qp    *QP
	ops   []Op
	out   []Result
	arena []byte
	errp  *error
}

func (s *applySub) run() {
	for i := range s.batches {
		b := &s.batches[i]
		copyRes := b.qp.fabric.params.CopyResults
		if _, err := applyOps(b.qp.region, b.ops, b.out, b.arena, copyRes, &s.stats); err != nil {
			*b.errp = err
		}
		s.stats.RTTs++
	}
}

func (l *lane) getPending(f *Fabric) *pending {
	if n := len(l.free); n > 0 {
		d := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return d
	}
	d := &pending{f: f, lane: l}
	d.fire = d.run
	d.wake = d.resume
	return d
}

func (l *lane) putPending(d *pending) {
	d.proc, d.qp, d.ops, d.batches = nil, nil, nil, nil
	d.res, d.err = nil, nil
	for i := range d.subs {
		sub := d.subs[i]
		sub.batches = sub.batches[:0]
		sub.stats = Stats{}
		l.subFree = append(l.subFree, sub)
		d.subs[i] = nil
	}
	d.subs = d.subs[:0]
	// The out/resBuf/arena/batchErrs backing arrays are kept for reuse.
	l.free = append(l.free, d)
}

func (l *lane) getSub() *applySub {
	if n := len(l.subFree); n > 0 {
		s := l.subFree[n-1]
		l.subFree[n-1] = nil
		l.subFree = l.subFree[:n-1]
		return s
	}
	s := &applySub{}
	s.fire = s.run
	return s
}

// resume wakes the issuing process at the completion instant of a
// cross-partition post. It runs in the issuing partition, scheduled at
// post time, so the target partition never touches this scheduler.
func (d *pending) resume() {
	d.lane.env.Resume(d.proc, d.resumeAt)
}

// readBytes totals the payload bytes the batch's READs will occupy in
// the descriptor arena.
func readBytes(ops []Op) int {
	n := 0
	for i := range ops {
		if ops[i].Kind == OpRead && ops[i].Len > 0 {
			n += ops[i].Len
		}
	}
	return n
}

// run executes at the virtual midpoint of the round-trip: it applies
// the posted verbs against their regions and schedules the issuing
// process's resume at the completion instant. Scheduling the resume
// here — not at post time — consumes a sequence number at the midpoint,
// exactly when the old second Sleep did, so tie-breaking against other
// processes is bit-identical to the two-sleep implementation.
func (d *pending) run() {
	// Size the descriptor scratch once, for the whole post, before any
	// carving: carved sub-slices must never be moved by a later grow.
	d.sizeScratch()
	if d.qp != nil {
		d.res, d.err = d.applyBatch(d.qp, d.ops)
		d.lane.stats.RTTs++
	} else {
		for i, b := range d.batches {
			res, err := d.applyBatch(b.QP, b.Ops)
			d.lane.stats.RTTs++
			if err != nil && d.err == nil {
				d.err = err
			}
			d.out[i] = res
		}
	}
	d.lane.env.Resume(d.proc, d.resumeAt)
}

// sizeScratch grows the descriptor's result and arena buffers to the
// whole post's footprint, so later carving never moves a live slice.
func (d *pending) sizeScratch() {
	nops, nbytes := 0, 0
	if d.qp != nil {
		nops, nbytes = len(d.ops), readBytes(d.ops)
	} else {
		for _, b := range d.batches {
			nops += len(b.Ops)
			nbytes += readBytes(b.Ops)
		}
	}
	if cap(d.resBuf) < nops {
		d.resBuf = make([]Result, nops)
	}
	if !d.f.params.CopyResults && cap(d.arena) < nbytes {
		d.arena = make([]byte, nbytes)
	}
	d.resLen, d.arenaLen = 0, 0
}

// applyBatch carves the batch's destinations out of the descriptor
// scratch and applies the verbs, charging the issuing lane's counters.
func (d *pending) applyBatch(qp *QP, ops []Op) ([]Result, error) {
	out := d.resBuf[d.resLen : d.resLen+len(ops)]
	d.resLen += len(ops)
	var arena []byte
	if !d.f.params.CopyResults {
		arena = d.arena[d.arenaLen:]
	}
	used, err := applyOps(qp.region, ops, out, arena, d.f.params.CopyResults, &d.lane.stats)
	d.arenaLen += used
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Post issues a doorbell batch: all ops execute against the target
// region in order, atomically at one instant of virtual time, and the
// whole batch costs one round-trip. It returns one Result per op; see
// Result.Data for the lifetime of READ payloads.
func (qp *QP) Post(p *sim.Proc, ops []Op) ([]Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	return qp.postWith(p, qp.fabric.laneOf(p).getPending(qp.fabric), ops)
}

// postWith runs one single-batch round-trip on descriptor d: the verbs
// land on the memory node halfway through the round-trip (so other
// coordinators can interleave before and after the apply instant) and
// the issuing process parks once, until the completion instant. A
// batch whose region lives in another partition takes the cross-
// partition seam instead.
func (qp *QP) postWith(p *sim.Proc, d *pending, ops []Op) ([]Result, error) {
	f := qp.fabric
	if f.world != nil && qp.region.part != p.Env().Part() {
		d.qp, d.ops = qp, ops
		res, _, err := d.crossPost(p)
		return res, err
	}
	lane := d.lane
	lat := f.latency(lane.env.Rand(), batchPayload(ops), len(ops))
	lane.posted(p, qp, ops)
	d.proc, d.qp, d.ops = p, qp, ops
	now := p.Now()
	d.resumeAt = now.Add(lat)
	lane.env.CallAt(now.Add(lat/2), d.fire)
	p.Suspend()
	res, err := d.res, d.err
	lane.completed(p, qp, ops, lat)
	if lane.fl != nil {
		lane.fl.Wire(p, classOfOps(ops), lat)
	}
	lane.putPending(d)
	return res, err
}

// crossPost runs a post (single-batch or multi-batch) whose targets
// include regions owned by other partitions. The protocol:
//
//   - at post time, in the issuing partition: draw the latency (local
//     random stream), size and pre-carve every batch's result and
//     arena destinations from the descriptor scratch, group batches by
//     target partition into pooled applySubs, hand each remote sub to
//     its target via the mailbox seam (sim.Env.Send) for the midpoint
//     instant, schedule the local wakeup at the completion instant,
//     and park;
//   - at the midpoint, in each target partition: the sub applies its
//     batches into the pre-carved destinations and counts verbs into
//     its own scratch — disjoint memory per target, no shared writes;
//   - at the completion instant, back in the issuing partition: fold
//     the subs' counters into the lane (the midpoint lies at least one
//     window earlier, so the barrier ordered those writes), surface
//     the first error in batch order, and recycle everything.
//
// The issuing process parks exactly once, like a local post.
//
// Trace and metrics, when attached, are emitted from the issuing
// partition exactly as on the local path, into the issuing lane's
// partition shard — so emission stays lock-free at any worker count;
// without probes the hot path stays probe-free behind one pointer
// check.
func (d *pending) crossPost(p *sim.Proc) ([]Result, [][]Result, error) {
	f := d.f
	lane := d.lane
	single := d.qp != nil
	var maxLat sim.Duration
	if single {
		maxLat = f.latency(lane.env.Rand(), batchPayload(d.ops), len(d.ops))
	} else {
		for _, b := range d.batches {
			if lat := f.latency(lane.env.Rand(), batchPayload(b.Ops), len(b.Ops)); lat > maxLat {
				maxLat = lat
			}
		}
	}
	d.sizeScratch()
	nb := 1
	if !single {
		nb = len(d.batches)
	}
	if cap(d.batchErrs) < nb {
		d.batchErrs = make([]error, nb)
	}
	d.batchErrs = d.batchErrs[:nb]
	for i := range d.batchErrs {
		d.batchErrs[i] = nil
	}
	for i := 0; i < nb; i++ {
		qp, ops := d.qp, d.ops
		if !single {
			qp, ops = d.batches[i].QP, d.batches[i].Ops
		}
		out := d.resBuf[d.resLen : d.resLen+len(ops)]
		d.resLen += len(ops)
		var arena []byte
		if !f.params.CopyResults {
			n := readBytes(ops)
			arena = d.arena[d.arenaLen : d.arenaLen+n]
			d.arenaLen += n
		}
		sub := d.subFor(qp.region.part)
		sub.batches = append(sub.batches, subBatch{
			qp: qp, ops: ops, out: out, arena: arena, errp: &d.batchErrs[i],
		})
		if single {
			d.res = out
		} else {
			d.out[i] = out
		}
	}
	d.emitPost(p)
	d.proc = p
	now := p.Now()
	mid := now.Add(maxLat / 2)
	d.resumeAt = now.Add(maxLat)
	for _, sub := range d.subs {
		target := f.lanes[sub.batches[0].qp.region.part].env
		lane.env.Send(target, mid, sub.fire)
	}
	lane.env.CallAt(d.resumeAt, d.wake)
	p.Suspend()
	d.emitDone(p, maxLat)
	if lane.fl != nil {
		// One park, one charge: a multi-batch post costs its slowest
		// batch, so flight charges maxLat once (not per batch).
		lane.fl.Wire(p, d.wireClass(), maxLat)
	}
	for _, sub := range d.subs {
		lane.stats = lane.stats.Add(sub.stats)
		lane.cross = lane.cross.Add(sub.stats)
	}
	for i := 0; i < nb; i++ {
		if d.batchErrs[i] == nil {
			continue
		}
		if d.err == nil {
			d.err = d.batchErrs[i]
		}
		if single {
			d.res = nil
		} else {
			d.out[i] = nil
		}
	}
	res, out, err := d.res, d.out, d.err
	lane.putPending(d)
	return res, out, err
}

// emitPost reports every batch of a cross-partition post as issued.
func (d *pending) emitPost(p *sim.Proc) {
	if d.qp != nil {
		d.lane.posted(p, d.qp, d.ops)
		return
	}
	for _, b := range d.batches {
		d.lane.posted(p, b.QP, b.Ops)
	}
}

// emitDone reports every batch of a cross-partition post as completed.
func (d *pending) emitDone(p *sim.Proc, lat sim.Duration) {
	if d.qp != nil {
		d.lane.completed(p, d.qp, d.ops, lat)
		return
	}
	for _, b := range d.batches {
		d.lane.completed(p, b.QP, b.Ops, lat)
	}
}

// subFor returns the post's applySub for target partition part,
// creating it from the lane pool on first use.
func (d *pending) subFor(part int) *applySub {
	for _, s := range d.subs {
		if s.batches[0].qp.region.part == part {
			return s
		}
	}
	s := d.lane.getSub()
	d.subs = append(d.subs, s)
	return s
}

// applyOps executes ops against region r at one instant of virtual
// time (it runs inside a midpoint call, without yielding, so the batch
// is atomic), writing completions into out and carving READ payloads
// from the front of arena unless copyResults. It returns the arena
// bytes consumed. st receives the verb counters as ops apply — always
// a location owned by the partition the apply runs in (the issuing
// lane for local posts, the sub's fold-later scratch for cross-
// partition posts).
func applyOps(r *Region, ops []Op, out []Result, arena []byte, copyResults bool, st *Stats) (int, error) {
	if r.failed {
		return 0, fmt.Errorf("rdma: region %q (node %d) unreachable", r.name, r.id)
	}
	used := 0
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpRead:
			if err := r.check(op.Off, op.Len); err != nil {
				return used, err
			}
			var data []byte
			if copyResults {
				data = make([]byte, op.Len)
			} else {
				end := used + op.Len
				data = arena[used:end:end]
				used = end
			}
			copy(data, r.buf[op.Off:])
			out[i] = Result{Data: data}
			st.Reads++
			st.BytesRead += uint64(op.Len)
		case OpWrite:
			if err := r.check(op.Off, len(op.Data)); err != nil {
				return used, err
			}
			copy(r.buf[op.Off:], op.Data)
			out[i] = Result{}
			st.Writes++
			st.BytesWrite += uint64(len(op.Data))
		case OpCAS:
			if err := r.checkAtomic(op.Off); err != nil {
				return used, err
			}
			cur := binary.LittleEndian.Uint64(r.buf[op.Off:])
			ok := cur == op.Compare
			if ok {
				binary.LittleEndian.PutUint64(r.buf[op.Off:], op.Swap)
			}
			out[i] = Result{Old: cur, OK: ok}
			st.CASes++
		case OpMaskedCAS:
			if err := r.checkAtomic(op.Off); err != nil {
				return used, err
			}
			cur := binary.LittleEndian.Uint64(r.buf[op.Off:])
			ok := cur&op.Mask == op.Compare&op.Mask
			if ok {
				next := cur&^op.Mask | op.Swap&op.Mask
				binary.LittleEndian.PutUint64(r.buf[op.Off:], next)
			}
			out[i] = Result{Old: cur, OK: ok}
			st.MaskedCASes++
		default:
			return used, fmt.Errorf("rdma: unknown op kind %d", op.Kind)
		}
	}
	return used, nil
}

func (r *Region) check(off uint64, n int) error {
	if n < 0 || off > uint64(len(r.buf)) || uint64(n) > uint64(len(r.buf))-off {
		return fmt.Errorf("rdma: access [%d,%d) outside region %q of %d bytes",
			off, off+uint64(n), r.name, len(r.buf))
	}
	return nil
}

func (r *Region) checkAtomic(off uint64) error {
	if off%8 != 0 {
		return fmt.Errorf("rdma: atomic at unaligned offset %d", off)
	}
	return r.check(off, 8)
}

// post1 issues a single-verb batch with the op held in the post's own
// descriptor, so the convenience wrappers allocate nothing.
func (qp *QP) post1(p *sim.Proc, op Op) ([]Result, error) {
	d := qp.fabric.laneOf(p).getPending(qp.fabric)
	d.op1[0] = op
	return qp.postWith(p, d, d.op1[:1])
}

// Read fetches n bytes at off in a single round-trip. The returned
// bytes follow Result.Data's lifetime rules.
func (qp *QP) Read(p *sim.Proc, off uint64, n int) ([]byte, error) {
	res, err := qp.post1(p, Op{Kind: OpRead, Off: off, Len: n})
	if err != nil {
		return nil, err
	}
	return res[0].Data, nil
}

// Write stores data at off in a single round-trip.
func (qp *QP) Write(p *sim.Proc, off uint64, data []byte) error {
	_, err := qp.post1(p, Op{Kind: OpWrite, Off: off, Data: data})
	return err
}

// CAS compares-and-swaps the 8-byte word at off.
func (qp *QP) CAS(p *sim.Proc, off, compare, swap uint64) (old uint64, ok bool, err error) {
	res, err := qp.post1(p, Op{Kind: OpCAS, Off: off, Compare: compare, Swap: swap})
	if err != nil {
		return 0, false, err
	}
	return res[0].Old, res[0].OK, nil
}

// MaskedCAS compares-and-swaps only the bits of mask within the 8-byte
// word at off.
func (qp *QP) MaskedCAS(p *sim.Proc, off, compare, swap, mask uint64) (old uint64, ok bool, err error) {
	res, err := qp.post1(p, Op{Kind: OpMaskedCAS, Off: off, Compare: compare, Swap: swap, Mask: mask})
	if err != nil {
		return 0, false, err
	}
	return res[0].Old, res[0].OK, nil
}

// PostMulti issues one batch per queue pair concurrently (as a real
// NIC would with doorbells to several QPs) and waits for all of them:
// the verbs of every batch apply in order at the same instant and the
// caller is charged the slowest batch's round-trip, not the sum. This
// is how synchronous (f+1)-replication writes all replicas in one
// round-trip of latency.
//
// The returned slice (and any READ payloads inside it, unless
// CopyResults is set) is scratch reused by a later post: consume it
// before the issuing process posts again or parks.
func PostMulti(p *sim.Proc, batches []Batch) ([][]Result, error) {
	if len(batches) == 0 {
		return nil, nil
	}
	f := batches[0].QP.fabric
	part := p.Env().Part()
	cross := false
	for _, b := range batches {
		if b.QP.fabric != f {
			panic("rdma: PostMulti across fabrics")
		}
		if f.world != nil && b.QP.region.part != part {
			cross = true
		}
	}
	lane := f.lanes[part]
	if cross {
		d := lane.getPending(f)
		d.batches = batches
		if cap(d.out) < len(batches) {
			d.out = make([][]Result, len(batches))
		}
		d.out = d.out[:len(batches)]
		_, out, err := d.crossPost(p)
		return out, err
	}
	var maxLat sim.Duration
	for _, b := range batches {
		if lat := f.latency(lane.env.Rand(), batchPayload(b.Ops), len(b.Ops)); lat > maxLat {
			maxLat = lat
		}
	}
	for _, b := range batches {
		lane.posted(p, b.QP, b.Ops)
	}
	d := lane.getPending(f)
	d.proc, d.batches = p, batches
	if cap(d.out) < len(batches) {
		d.out = make([][]Result, len(batches))
	}
	d.out = d.out[:len(batches)]
	now := p.Now()
	d.resumeAt = now.Add(maxLat)
	lane.env.CallAt(now.Add(maxLat/2), d.fire)
	p.Suspend()
	out, err := d.out, d.err
	for _, b := range batches {
		lane.completed(p, b.QP, b.Ops, maxLat)
	}
	if lane.fl != nil {
		// One park for the whole multi-post: charge its cost once.
		lane.fl.Wire(p, d.wireClass(), maxLat)
	}
	lane.putPending(d)
	return out, err
}

// Batch pairs a queue pair with the ops to post on it, for PostMulti.
type Batch struct {
	QP  *QP
	Ops []Op
}
