// Package trace is the deterministic virtual-time tracing and
// observability subsystem. A Recorder collects typed events — txn
// begin/retry/commit/abort, phase transitions, per-verb RDMA
// issue/complete, lock traffic on CREST local objects, simulator
// scheduling — into a bounded ring buffer keyed by (coordinator, txn,
// span).
//
// Because the whole system runs inside the deterministic cooperative
// simulator (internal/sim), a trace is byte-exact and replayable: two
// runs with the same seed and configuration produce identical event
// streams, and recording costs no virtual time, so the trace never
// distorts the measurement the way hardware profilers do.
//
// Every Recorder method is nil-safe: a disabled recorder is a nil
// pointer and each emission point costs exactly one pointer check on
// the hot path.
//
// On top of the raw stream sit three views (see chrome.go and
// report.go): per-txn span timelines with exact virtual-time phase
// durations and RTT attribution, a hot-key contention profile, and a
// Chrome trace_event JSON export that opens directly in Perfetto or
// chrome://tracing.
package trace

import (
	"fmt"
	"sort"

	"crest/internal/layout"
	"crest/internal/shard"
	"crest/internal/sim"
)

// Kind identifies an event type.
type Kind uint8

// The event types the subsystem records.
const (
	// Transaction lifecycle (span events).
	KindTxnBegin Kind = iota
	KindTxnRetry
	KindTxnCommit
	KindTxnAbort

	// Phase machine transitions within one attempt.
	KindPhase

	// RDMA fabric activity.
	KindVerbIssue
	KindVerbComplete
	KindRTT // one per doorbell batch (round-trip attribution)

	// Concurrency-control events on records.
	KindConflict      // a lock CAS lost or a validation check failed
	KindLockAcquire   // remote cell locks acquired
	KindLockPiggyback // a local txn reused already-held remote locks
	KindLockRelease   // remote cell locks released (write-back)
	KindENOverflow    // a cell's 16-bit epoch number wrapped

	// Simulator scheduling.
	KindProcSpawn
	KindProcBlock
	KindProcWake
	KindProcFinish
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTxnBegin:
		return "txn-begin"
	case KindTxnRetry:
		return "txn-retry"
	case KindTxnCommit:
		return "txn-commit"
	case KindTxnAbort:
		return "txn-abort"
	case KindPhase:
		return "phase"
	case KindVerbIssue:
		return "verb-issue"
	case KindVerbComplete:
		return "verb-complete"
	case KindRTT:
		return "rtt"
	case KindConflict:
		return "conflict"
	case KindLockAcquire:
		return "lock-acquire"
	case KindLockPiggyback:
		return "lock-piggyback"
	case KindLockRelease:
		return "lock-release"
	case KindENOverflow:
		return "en-overflow"
	case KindProcSpawn:
		return "proc-spawn"
	case KindProcBlock:
		return "proc-block"
	case KindProcWake:
		return "proc-wake"
	case KindProcFinish:
		return "proc-finish"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Phase identifies a protocol phase within one transaction attempt.
// CREST's localized path uses all five; the strict engines collapse
// lock acquisition into PhaseExec. PhaseRelease covers abort cleanup
// (lock release / write-back after a failed attempt), which no engine
// charges to a measured phase.
type Phase uint8

// The phases of the paper's phase machine (execute → lock → validate
// → log → apply).
const (
	PhaseExec Phase = iota
	PhaseLock
	PhaseValidate
	PhaseLog
	PhaseApply
	PhaseRelease
	NumPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseExec:
		return "execute"
	case PhaseLock:
		return "lock"
	case PhaseValidate:
		return "validate"
	case PhaseLog:
		return "log"
	case PhaseApply:
		return "apply"
	case PhaseRelease:
		return "release"
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Event is one trace record. Fields beyond At/Kind are populated per
// kind; zero values mean "not applicable".
type Event struct {
	Seq  uint64   // global emission order (survives ring eviction)
	At   sim.Time // virtual time of the event
	Kind Kind

	// Span identity: the (coordinator, txn, span) key. Span is the
	// recorder-issued span id; Txn is the engine's transaction id when
	// one exists (CREST local txn ids), else 0.
	Coord   uint64
	Span    uint64
	Txn     uint64
	Attempt int

	Phase  Phase  // KindPhase: phase entered; verb events: phase charged
	Reason string // KindTxnAbort: abort classification
	False  bool   // KindTxnAbort / KindConflict: false conflict

	Table layout.TableID // record identity for CC events
	Key   layout.Key
	Mask  uint64 // cell bits involved
	Cell  int    // KindENOverflow: the wrapping cell

	Verb    string       // verb events: READ / WRITE / CAS / masked-CAS
	QP      int          // verb events: queue-pair id
	Region  int          // verb events: target region id
	Bytes   int          // verb events: payload bytes charged
	Ops     int          // KindRTT: verbs in the batch
	Latency sim.Duration // KindVerbComplete / KindRTT: charged latency

	Label string // txn label, proc name, or wait-queue name
}

// Span is the live per-transaction handle the engines thread through
// execution (via sim.Proc's trace context). It carries the identity
// every event of the transaction is keyed by, plus the current phase
// so fabric events can be attributed without the fabric knowing about
// phase machines.
type Span struct {
	Coord   uint64
	ID      uint64
	Label   string
	Attempt int
	Txn     uint64 // engine-assigned txn id, 0 until known
	Phase   Phase

	done   bool
	txnKey any // retry detection: the engine's *Txn pointer

	// Last conflict site of the current attempt, for attributing an
	// abort to the cells that caused it in the hot-key profile.
	cTable   layout.TableID
	cKey     layout.Key
	cMask    uint64
	cAttempt int
}

// SetTxn records the engine's transaction id once drawn.
func (s *Span) SetTxn(id uint64) {
	if s != nil {
		s.Txn = id
	}
}

// hotKey identifies one cell for the contention profile.
type hotKey struct {
	Table layout.TableID
	Key   layout.Key
	Cell  int
}

// HotCell is one entry of the hot-key contention profile.
type HotCell struct {
	Table     layout.TableID
	Key       layout.Key
	Cell      int
	Conflicts uint64 // lock CASes lost + validation failures touching the cell
	Aborts    uint64 // aborts attributed to the cell
}

// Recorder collects events into a bounded ring buffer. It is owned by
// one simulation environment; the cooperative scheduler serializes all
// emissions, so no locking is needed. The zero Recorder is unusable;
// a nil *Recorder is the disabled state and every method tolerates it.
type Recorder struct {
	ring shard.Ring[Event]
	seq  uint64

	nextSpan uint64
	hot      map[hotKey]*HotCell

	// Partition-recorder mode (Shard): fam holds a root's children or
	// a child's strided span-id sequence; root points a child back at
	// its parent for the ProcEvents flag.
	fam  shard.Family[Recorder]
	root *Recorder

	// ProcEvents enables simulator scheduling events (spawn / block /
	// wake / finish). They are voluminous under contention, so they are
	// opt-in.
	ProcEvents bool
}

// DefaultCapacity bounds the ring buffer when the caller does not.
const DefaultCapacity = 1 << 18

// NewRecorder returns an enabled recorder holding at most capacity
// events (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: shard.NewRing[Event](capacity, 0), hot: map[hotKey]*HotCell{}}
}

// Enabled reports whether the recorder collects events.
func (r *Recorder) Enabled() bool { return r != nil }

// Shard returns the child recorder owned by partition part of parts
// (see shard.Family.Shard); the root's Snapshot merges the children
// into one deterministic stream. A nil recorder returns nil.
func (r *Recorder) Shard(part, parts int) *Recorder {
	if r == nil {
		return nil
	}
	return r.fam.Shard(r, part, parts, func(f shard.Family[Recorder]) *Recorder {
		return &Recorder{ring: shard.NewRing[Event](r.ring.Cap(), 0),
			hot: map[hotKey]*HotCell{}, fam: f, root: r}
	})
}

// procEvents resolves the ProcEvents flag: children defer to the root
// so the flag can be toggled after sharding.
func (r *Recorder) procEvents() bool {
	if r.root != nil {
		return r.root.ProcEvents
	}
	return r.ProcEvents
}

// emit appends one event to the ring, evicting the oldest on overflow.
func (r *Recorder) emit(e Event) {
	r.seq++
	e.Seq = r.seq
	r.ring.Push(e)
}

// Dropped reports how many events were evicted from the ring (summed
// over the partition children on a sharded recorder).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return shard.Sum(r, &r.fam, func(c *Recorder) uint64 { return c.ring.Dropped() })
}

// Len reports the number of buffered events (summed over the partition
// children on a sharded recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(shard.Sum(r, &r.fam, func(c *Recorder) uint64 { return uint64(c.ring.Len()) }))
}

// StartSpan begins (or resumes, for a retry of the same transaction)
// the span for txnKey on proc p, stores it in p's trace context and
// returns it. A nil recorder returns nil.
func (r *Recorder) StartSpan(p *sim.Proc, coord uint64, label string, txnKey any) *Span {
	if r == nil {
		return nil
	}
	if prev, ok := p.TraceCtx().(*Span); ok && prev != nil && !prev.done && prev.txnKey == txnKey {
		prev.Attempt++
		prev.Phase = PhaseExec
		r.emit(Event{At: p.Now(), Kind: KindTxnRetry, Coord: prev.Coord, Span: prev.ID,
			Txn: prev.Txn, Attempt: prev.Attempt, Label: prev.Label})
		return prev
	}
	r.nextSpan++
	s := &Span{Coord: coord, ID: r.fam.ID(r.nextSpan), Label: label, Attempt: 1, txnKey: txnKey}
	p.SetTraceCtx(s)
	r.emit(Event{At: p.Now(), Kind: KindTxnBegin, Coord: coord, Span: s.ID,
		Attempt: 1, Label: label})
	return s
}

// EnterPhase records a phase transition on s.
func (r *Recorder) EnterPhase(at sim.Time, s *Span, ph Phase) {
	if r == nil || s == nil {
		return
	}
	s.Phase = ph
	r.emit(Event{At: at, Kind: KindPhase, Coord: s.Coord, Span: s.ID, Txn: s.Txn,
		Attempt: s.Attempt, Phase: ph})
}

// Commit ends s as committed.
func (r *Recorder) Commit(at sim.Time, s *Span) {
	if r == nil || s == nil {
		return
	}
	s.done = true
	r.emit(Event{At: at, Kind: KindTxnCommit, Coord: s.Coord, Span: s.ID, Txn: s.Txn,
		Attempt: s.Attempt, Label: s.Label})
}

// Abort records a failed attempt of s with its classification. The
// span itself stays open for the retry. When the attempt recorded a
// conflict, the abort is attributed to that conflict's cells in the
// hot-key profile.
func (r *Recorder) Abort(at sim.Time, s *Span, reason string, falseConflict bool) {
	if r == nil || s == nil {
		return
	}
	r.emit(Event{At: at, Kind: KindTxnAbort, Coord: s.Coord, Span: s.ID, Txn: s.Txn,
		Attempt: s.Attempt, Reason: reason, False: falseConflict, Label: s.Label})
	if s.cAttempt == s.Attempt && s.cMask != 0 {
		r.bumpHot(s.cTable, s.cKey, s.cMask, true)
	}
}

// spanID unpacks a possibly-nil span into event identity fields.
func spanID(s *Span) (coord, id, txn uint64, attempt int, ph Phase) {
	if s == nil {
		return 0, 0, 0, 0, PhaseExec
	}
	return s.Coord, s.ID, s.Txn, s.Attempt, s.Phase
}

// SpanOf extracts the span from a proc's trace context (nil when
// tracing is off or the proc runs outside a transaction).
func SpanOf(p *sim.Proc) *Span {
	s, _ := p.TraceCtx().(*Span)
	return s
}

// VerbIssue records one verb posted to the fabric.
func (r *Recorder) VerbIssue(at sim.Time, s *Span, verb string, qp, region, bytes int) {
	if r == nil {
		return
	}
	coord, id, txn, attempt, ph := spanID(s)
	r.emit(Event{At: at, Kind: KindVerbIssue, Coord: coord, Span: id, Txn: txn,
		Attempt: attempt, Phase: ph, Verb: verb, QP: qp, Region: region, Bytes: bytes})
}

// VerbComplete records one verb's completion with its charged latency
// (the whole batch's round-trip; doorbell batching amortizes it).
func (r *Recorder) VerbComplete(at sim.Time, s *Span, verb string, qp, region, bytes int, lat sim.Duration) {
	if r == nil {
		return
	}
	coord, id, txn, attempt, ph := spanID(s)
	r.emit(Event{At: at, Kind: KindVerbComplete, Coord: coord, Span: id, Txn: txn,
		Attempt: attempt, Phase: ph, Verb: verb, QP: qp, Region: region, Bytes: bytes, Latency: lat})
}

// RTT records one doorbell batch: the unit of round-trip attribution.
func (r *Recorder) RTT(at sim.Time, s *Span, qp, region, ops, bytes int, lat sim.Duration) {
	if r == nil {
		return
	}
	coord, id, txn, attempt, ph := spanID(s)
	r.emit(Event{At: at, Kind: KindRTT, Coord: coord, Span: id, Txn: txn,
		Attempt: attempt, Phase: ph, QP: qp, Region: region, Ops: ops, Bytes: bytes, Latency: lat})
}

// Conflict records a concurrency-control conflict (a lock CAS lost to
// another holder, or a validation check failure) on the given cells,
// feeding the hot-key profile.
func (r *Recorder) Conflict(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	coord, id, txn, attempt, ph := spanID(s)
	r.emit(Event{At: at, Kind: KindConflict, Coord: coord, Span: id, Txn: txn,
		Attempt: attempt, Phase: ph, Table: table, Key: key, Mask: mask})
	r.bumpHot(table, key, mask, false)
	if s != nil {
		s.cTable, s.cKey, s.cMask, s.cAttempt = table, key, mask, s.Attempt
	}
}

func (r *Recorder) bumpHot(table layout.TableID, key layout.Key, mask uint64, abort bool) {
	for m := mask; m != 0; m &= m - 1 {
		cell := bitIndex(m & -m)
		hk := hotKey{table, key, cell}
		hc := r.hot[hk]
		if hc == nil {
			hc = &HotCell{Table: table, Key: key, Cell: cell}
			r.hot[hk] = hc
		}
		if abort {
			hc.Aborts++
		} else {
			hc.Conflicts++
		}
	}
}

func bitIndex(b uint64) int {
	i := 0
	for b > 1 {
		b >>= 1
		i++
	}
	return i
}

// LockAcquire records remote cell locks won on a record.
func (r *Recorder) LockAcquire(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	coord, id, txn, attempt, ph := spanID(s)
	r.emit(Event{At: at, Kind: KindLockAcquire, Coord: coord, Span: id, Txn: txn,
		Attempt: attempt, Phase: ph, Table: table, Key: key, Mask: mask})
}

// LockPiggyback records a local transaction reusing already-held
// remote locks (CREST §5.1).
func (r *Recorder) LockPiggyback(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	coord, id, txn, attempt, ph := spanID(s)
	r.emit(Event{At: at, Kind: KindLockPiggyback, Coord: coord, Span: id, Txn: txn,
		Attempt: attempt, Phase: ph, Table: table, Key: key, Mask: mask})
}

// LockRelease records remote cell locks released at write-back.
func (r *Recorder) LockRelease(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	coord, id, txn, attempt, ph := spanID(s)
	r.emit(Event{At: at, Kind: KindLockRelease, Coord: coord, Span: id, Txn: txn,
		Attempt: attempt, Phase: ph, Table: table, Key: key, Mask: mask})
}

// ENOverflow records a cell's 16-bit epoch number wrapping (the paper's
// §4.2 rollover hazard, normally masked by the ENThreshold fallback).
func (r *Recorder) ENOverflow(at sim.Time, s *Span, table layout.TableID, key layout.Key, cell int) {
	if r == nil {
		return
	}
	coord, id, txn, attempt, ph := spanID(s)
	r.emit(Event{At: at, Kind: KindENOverflow, Coord: coord, Span: id, Txn: txn,
		Attempt: attempt, Phase: ph, Table: table, Key: key, Cell: cell})
}

// The sim.Observer implementation: simulator scheduling events. Only
// recorded when ProcEvents is set.

// ProcSpawn implements sim.Observer.
func (r *Recorder) ProcSpawn(name string, at sim.Time) {
	if r == nil || !r.procEvents() {
		return
	}
	r.emit(Event{At: at, Kind: KindProcSpawn, Label: name})
}

// ProcBlock implements sim.Observer: a process parked on a wait queue.
func (r *Recorder) ProcBlock(name, queue string, at sim.Time) {
	if r == nil || !r.procEvents() {
		return
	}
	r.emit(Event{At: at, Kind: KindProcBlock, Label: name, Reason: queue})
}

// ProcWake implements sim.Observer.
func (r *Recorder) ProcWake(name string, at sim.Time) {
	if r == nil || !r.procEvents() {
		return
	}
	r.emit(Event{At: at, Kind: KindProcWake, Label: name})
}

// ProcFinish implements sim.Observer.
func (r *Recorder) ProcFinish(name string, at sim.Time) {
	if r == nil || !r.procEvents() {
		return
	}
	r.emit(Event{At: at, Kind: KindProcFinish, Label: name})
}

// Snapshot is an immutable copy of the recorder's state, the input to
// every exporter.
type Snapshot struct {
	Events  []Event // oldest → newest
	Dropped uint64
	Hot     []HotCell // sorted: most conflicted first
}

// Snapshot copies the ring (oldest to newest) and the hot-key profile.
// A nil recorder yields an empty snapshot.
//
// On a sharded recorder the snapshot is the deterministic merge of the
// root and every partition child: events sort by (virtual time,
// partition, per-partition emission order) — the same key the
// partitioned scheduler merges cross-partition mailboxes by — then
// Seq renumbers in merged order, hot-cell profiles sum per cell, and
// Dropped sums the family's evictions. The merged order is a pure
// function of the simulation, never of the worker count.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	children := r.fam.Children()
	if children == nil {
		s.Dropped = r.ring.Dropped()
		s.Events = r.ring.AppendTo(make([]Event, 0, r.ring.Len()))
		s.Hot = sortedHot(r.hot)
		return s
	}

	s.Dropped = r.Dropped()
	m := shard.NewMerge(r.Len(), func(e *Event) (int64, uint64) { return int64(e.At), e.Seq })
	m.AddRing(-1, &r.ring)
	for i, c := range children {
		m.AddRing(i, &c.ring)
	}
	s.Events = m.Sorted()
	for i := range s.Events {
		s.Events[i].Seq = s.Dropped + uint64(i) + 1
	}

	merged := make(map[hotKey]*HotCell, len(r.hot))
	foldHot(merged, r.hot)
	for _, c := range children {
		foldHot(merged, c.hot)
	}
	s.Hot = sortedHot(merged)
	return s
}

// foldHot sums src's per-cell counters into dst.
func foldHot(dst, src map[hotKey]*HotCell) {
	for hk, hc := range src {
		d := dst[hk]
		if d == nil {
			cp := *hc
			dst[hk] = &cp
			continue
		}
		d.Conflicts += hc.Conflicts
		d.Aborts += hc.Aborts
	}
}

// sortedHot flattens a hot-cell map into the canonical profile order:
// most contended first, ties by (table, key, cell).
func sortedHot(hot map[hotKey]*HotCell) []HotCell {
	out := make([]HotCell, 0, len(hot))
	for _, hc := range hot {
		out = append(out, *hc)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Conflicts+a.Aborts != b.Conflicts+b.Aborts {
			return a.Conflicts+a.Aborts > b.Conflicts+b.Aborts
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Cell < b.Cell
	})
	return out
}

// HotKeys returns the top-k entries of the contention profile.
func (s *Snapshot) HotKeys(k int) []HotCell {
	if k < 0 || k > len(s.Hot) {
		k = len(s.Hot)
	}
	return s.Hot[:k]
}
