// Package causality is the abort-forensics layer of the observability
// stack: a deterministic, nil-safe recorder of wait-for and conflict
// edges. Every time a coordinator blocks on, CAS-fails against, or
// validation-fails because of a cell, the engines record one Edge —
// (waiter txn, holder/updater txn, cell, edge kind, virtual wait
// duration) — through the shared engine.AttemptTimer seam.
//
// Recording is host-side only: it consumes no virtual time, no
// simulator events and no randomness, so a recording run is
// byte-identical to a plain run and same-seed runs produce byte-equal
// exports. Every method is nil-safe — a disabled recorder is a nil
// pointer and each emission point costs one pointer check — and the
// edge-recording hot path allocates nothing after warm-up.
//
// On top of the edge stream sit two views (report.go): blame chains
// ("T412 aborted at validation on (table 3, key 17, cell 2), updated
// by T398, which waited 14µs on T371") and an aggregated contention
// dependency graph with hotspot ranking and wait-cycle detection,
// exported as Graphviz DOT and schema-versioned JSON (export.go).
package causality

import (
	"fmt"

	"crest/internal/layout"
	"crest/internal/shard"
	"crest/internal/sim"
)

// Kind classifies one wait-for / conflict edge.
type Kind uint8

// The edge kinds the engines record.
const (
	// KindLockFail: a remote lock CAS lost to (or a locked read
	// retried against) the holder's cells.
	KindLockFail Kind = iota
	// KindValidation: a read version changed before commit; the holder
	// is the transaction that installed the newer version.
	KindValidation
	// KindDependency: a CREST local transaction waited for a
	// depended-on local transaction to resolve (§5.2).
	KindDependency
	// KindLocalWait: a coordinator blocked on a compute-node-local
	// object (cache-line mutex or admission queue).
	KindLocalWait
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindLockFail:
		return "lock-fail"
	case KindValidation:
		return "validation"
	case KindDependency:
		return "dependency"
	case KindLocalWait:
		return "local-wait"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// State is a transaction's final disposition.
type State uint8

// Transaction states. A harness that retries until commit leaves most
// nodes Committed with Aborts > 0; the abort history stays attached.
const (
	StatePending State = iota
	StateCommitted
	StateAborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Edge is one recorded wait-for / conflict observation. Waiter is
// always known; Holder is 0 when the blocking transaction could not be
// attributed (e.g. the updater aged out of the per-record ring, which
// conservatively counts as a true conflict — see engine.ConflictTracker).
type Edge struct {
	Seq    uint64   `json:"seq"` // global emission order (survives ring eviction)
	At     sim.Time `json:"at"`  // virtual time the edge was observed
	Kind   Kind     `json:"kind"`
	Waiter uint64   `json:"waiter"` // recorder-issued txn id
	Holder uint64   `json:"holder"` // recorder-issued txn id, 0 = unattributed

	// The contended record. Mask holds the cell bits involved; 0 means
	// the whole record (record-level lock word or unknown cells).
	Table layout.TableID `json:"table"`
	Key   layout.Key     `json:"key"`
	Mask  uint64         `json:"mask"`

	// Wait is the virtual time the waiter spent blocked (dependency
	// and local waits); conflict discoveries (lock CAS lost,
	// validation failure) are instantaneous and record 0.
	Wait sim.Duration `json:"wait"`
}

// Txn is the live per-transaction node the engines thread through
// execution via sim.Proc's why context. One node covers all attempts
// of a logical transaction; Aborts counts failed attempts and the
// cause fields freeze the conflict site of the last aborted attempt.
type Txn struct {
	ID      uint64
	Label   string
	Coord   uint64
	Attempt int
	Start   sim.Time
	End     sim.Time
	State   State
	Reason  string // last abort classification, "" if never aborted
	Aborts  int

	// Cause of the last abort: the conflict edge that attempt recorded
	// last, frozen by Abort. CauseSeq is 0 when the aborting attempt
	// recorded no edge (e.g. reverse-order aborts).
	CauseSeq   uint64
	CauseKind  Kind
	CauseTable layout.TableID
	CauseKey   layout.Key
	CauseMask  uint64
	Holder     uint64 // holder of the causing edge, 0 = unattributed

	done   bool
	txnKey any // retry detection: the engine's *Txn pointer

	// Conflict site of the current attempt (promoted to Cause* on
	// abort when it belongs to the aborting attempt).
	cSeq     uint64
	cKind    Kind
	cTable   layout.TableID
	cKey     layout.Key
	cMask    uint64
	cHolder  uint64
	cAttempt int
}

// WhyID returns the node's recorder-issued id (0 for nil: the id of an
// unattributed holder).
func (t *Txn) WhyID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// recKey identifies one record in the holder/updater tables.
type recKey struct {
	table layout.TableID
	key   layout.Key
}

// holderEntry is one live lock holding: the acquiring transaction and
// the cell bits it holds (0 = record-level lock word).
type holderEntry struct {
	id   uint64
	mask uint64
}

// updaterHistoryLen mirrors engine.ConflictTracker's 16-entry update
// ring: versions older than the window lose attribution and the edge
// conservatively records Holder 0.
const updaterHistoryLen = 16

// updEntry is one installed version with the transaction that wrote it.
type updEntry struct {
	version uint64
	id      uint64
	cells   uint64
}

// recState is the per-record attribution state.
type recState struct {
	holders []holderEntry
	ring    [updaterHistoryLen]updEntry
	ringLen int
	ringPos int // next slot to overwrite once the ring is full
}

// Recorder collects edges and transaction nodes into bounded rings.
// It is owned by one simulation environment; the cooperative scheduler
// serializes all emissions, so no locking is needed. The zero Recorder
// is unusable; a nil *Recorder is the disabled state and every method
// tolerates it.
type Recorder struct {
	edges shard.Ring[Edge]
	seq   uint64

	txns   shard.Ring[*Txn]
	nextID uint64

	recs map[recKey]*recState

	// Partitioned mode (see Shard). Children are each written by
	// exactly one partition; txn ids and edge seqs stride by the
	// partition count so the merged Snapshot stays collision-free
	// without remapping Cause references.
	fam shard.Family[Recorder]
}

// Default ring capacities when the caller passes none.
const (
	DefaultCapacity    = 1 << 18
	DefaultTxnCapacity = 1 << 16
)

// Options size a recorder's rings.
type Options struct {
	// Capacity bounds the edge ring (DefaultCapacity when <= 0).
	Capacity int
	// TxnCapacity bounds the transaction-node ring (DefaultTxnCapacity
	// when <= 0).
	TxnCapacity int
}

// NewRecorder returns an enabled recorder.
func NewRecorder(opt Options) *Recorder {
	if opt.Capacity <= 0 {
		opt.Capacity = DefaultCapacity
	}
	if opt.TxnCapacity <= 0 {
		opt.TxnCapacity = DefaultTxnCapacity
	}
	return &Recorder{edges: shard.NewRing[Edge](opt.Capacity, 0),
		txns: shard.NewRing[*Txn](opt.TxnCapacity, 0), recs: map[recKey]*recState{}}
}

// Enabled reports whether the recorder collects edges.
func (r *Recorder) Enabled() bool { return r != nil }

// Shard returns the child recorder owned by partition part of parts
// (see shard.Family.Shard); Snapshot on the root merges the children
// deterministically. Children stride their txn ids and edge seqs, so
// ids stay globally unique and CauseSeq references survive the merge
// without remapping. A nil recorder returns nil.
func (r *Recorder) Shard(part, parts int) *Recorder {
	if r == nil {
		return nil
	}
	return r.fam.Shard(r, part, parts, func(f shard.Family[Recorder]) *Recorder {
		return &Recorder{edges: shard.NewRing[Edge](r.edges.Cap(), 0),
			txns: shard.NewRing[*Txn](r.txns.Cap(), 0), recs: map[recKey]*recState{}, fam: f}
	})
}

// Dropped reports how many edges were evicted from the edge ring,
// summed across partition children.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return shard.Sum(r, &r.fam, func(c *Recorder) uint64 { return c.edges.Dropped() })
}

// Len reports the number of buffered edges, summed across partition
// children.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(shard.Sum(r, &r.fam, func(c *Recorder) uint64 { return uint64(c.edges.Len()) }))
}

// emit appends one edge to the ring, evicting the oldest on overflow.
// It returns the edge's sequence number (strided on partition children).
func (r *Recorder) emit(e Edge) uint64 {
	r.seq++
	e.Seq = r.fam.ID(r.seq)
	r.edges.Push(e)
	return e.Seq
}

// Of extracts the transaction node from a proc's why context (nil when
// recording is off or the proc runs outside a transaction).
func Of(p *sim.Proc) *Txn {
	t, _ := p.WhyCtx().(*Txn)
	return t
}

// IDOf returns the why id of the transaction running on p (0 when
// recording is off).
func IDOf(p *sim.Proc) uint64 { return Of(p).WhyID() }

// Begin starts (or resumes, for a retry of the same transaction) the
// node for txnKey on proc p, stores it in p's why context and returns
// it. A nil recorder returns nil. Begin allocates one node per logical
// transaction; the per-edge hot path stays allocation-free.
func (r *Recorder) Begin(p *sim.Proc, coord uint64, label string, txnKey any) *Txn {
	if r == nil {
		return nil
	}
	if prev, ok := p.WhyCtx().(*Txn); ok && prev != nil && !prev.done && prev.txnKey == txnKey {
		prev.Attempt++
		return prev
	}
	r.nextID++
	t := &Txn{ID: r.fam.ID(r.nextID), Label: label, Coord: coord, Attempt: 1, Start: p.Now(), txnKey: txnKey}
	p.SetWhyCtx(t)
	r.txns.Push(t)
	return t
}

// Commit ends t as committed.
func (r *Recorder) Commit(at sim.Time, t *Txn) {
	if r == nil || t == nil {
		return
	}
	t.done = true
	t.State = StateCommitted
	t.End = at
}

// Abort records a failed attempt of t with its classification. The
// node stays open for the retry. When the attempt recorded a conflict
// edge, the abort cause freezes to that edge.
func (r *Recorder) Abort(at sim.Time, t *Txn, reason string) {
	if r == nil || t == nil {
		return
	}
	t.State = StateAborted
	t.End = at
	t.Reason = reason
	t.Aborts++
	if t.cAttempt == t.Attempt && t.cSeq != 0 {
		t.CauseSeq = t.cSeq
		t.CauseKind = t.cKind
		t.CauseTable, t.CauseKey, t.CauseMask = t.cTable, t.cKey, t.cMask
		t.Holder = t.cHolder
	} else {
		t.CauseSeq, t.CauseMask, t.Holder = 0, 0, 0
	}
}

// edge records one observation for the transaction on p and remembers
// it as the current attempt's conflict site.
func (r *Recorder) edge(p *sim.Proc, kind Kind, holder uint64, table layout.TableID, key layout.Key, mask uint64, wait sim.Duration) {
	t := Of(p)
	if t == nil {
		return
	}
	seq := r.emit(Edge{At: p.Now(), Kind: kind, Waiter: t.ID, Holder: holder,
		Table: table, Key: key, Mask: mask, Wait: wait})
	t.cSeq, t.cKind, t.cHolder = seq, kind, holder
	t.cTable, t.cKey, t.cMask = table, key, mask
	t.cAttempt = t.Attempt
}

// LockFail records a lock CAS lost (or a locked read observed) on the
// given cells. The holder is resolved from the live lock table.
func (r *Recorder) LockFail(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	r.edge(p, KindLockFail, r.holderOf(table, key, mask), table, key, mask, 0)
}

// ValidationFail records a validation failure: a cell the transaction
// read at version since changed (or is locked) at commit time. The
// holder is the newest updater past since from the per-record ring,
// falling back to the live lock holder; versions older than the
// 16-entry window lose attribution (Holder 0), mirroring
// engine.ConflictTracker's conservative true-conflict answer.
func (r *Recorder) ValidationFail(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64, since uint64) {
	if r == nil {
		return
	}
	holder := r.updaterSince(table, key, since)
	if holder == 0 {
		holder = r.holderOf(table, key, mask)
	}
	r.edge(p, KindValidation, holder, table, key, mask, 0)
}

// DependencyWait records a CREST local dependency wait: the running
// transaction blocked for wait on the transaction with why id holder.
func (r *Recorder) DependencyWait(p *sim.Proc, holder uint64, wait sim.Duration) {
	if r == nil {
		return
	}
	r.edge(p, KindDependency, holder, 0, 0, 0, wait)
}

// LocalWait records a block on a compute-node-local object (cache-line
// mutex or admission queue). holder is the why id of the transaction
// that held the object when the waiter parked (0 when unknown).
func (r *Recorder) LocalWait(p *sim.Proc, table layout.TableID, key layout.Key, holder uint64, wait sim.Duration) {
	if r == nil {
		return
	}
	r.edge(p, KindLocalWait, holder, table, key, 0, wait)
}

// rec returns the attribution state for a record, creating it on first
// touch (warm-up; steady state only looks up).
func (r *Recorder) rec(table layout.TableID, key layout.Key) *recState {
	k := recKey{table, key}
	rs := r.recs[k]
	if rs == nil {
		rs = &recState{}
		r.recs[k] = rs
	}
	return rs
}

// OnLock registers the transaction on p as a live holder of the given
// cell bits (0 = the record-level lock word).
func (r *Recorder) OnLock(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	t := Of(p)
	if t == nil {
		return
	}
	rs := r.rec(table, key)
	for i := range rs.holders {
		if rs.holders[i].id == t.ID {
			rs.holders[i].mask |= mask
			return
		}
	}
	rs.holders = append(rs.holders, holderEntry{id: t.ID, mask: mask})
}

// OnUnlock drops the given cell bits from the record's live holders.
// mask 0 (a record-level lock word) clears every holder.
func (r *Recorder) OnUnlock(table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	rs := r.recs[recKey{table, key}]
	if rs == nil {
		return
	}
	if mask == 0 {
		rs.holders = rs.holders[:0]
		return
	}
	kept := rs.holders[:0]
	for _, h := range rs.holders {
		if h.mask &= ^mask; h.mask != 0 {
			kept = append(kept, h)
		}
	}
	rs.holders = kept
}

// holderOf resolves the oldest live holder overlapping mask (any
// holder when mask is 0); 0 when none is known.
func (r *Recorder) holderOf(table layout.TableID, key layout.Key, mask uint64) uint64 {
	rs := r.recs[recKey{table, key}]
	if rs == nil {
		return 0
	}
	for _, h := range rs.holders {
		if mask == 0 || h.mask == 0 || h.mask&mask != 0 {
			return h.id
		}
	}
	return 0
}

// OnUpdate records that transaction id installed version over the
// given cells, feeding updater attribution for validation failures.
// id 0 (recording off at the writer) still advances the ring so stale
// versions age out.
func (r *Recorder) OnUpdate(id uint64, table layout.TableID, key layout.Key, version, cells uint64) {
	if r == nil {
		return
	}
	rs := r.rec(table, key)
	e := updEntry{version: version, id: id, cells: cells}
	if rs.ringLen < updaterHistoryLen {
		rs.ring[rs.ringLen] = e
		rs.ringLen++
		return
	}
	rs.ring[rs.ringPos] = e
	rs.ringPos = (rs.ringPos + 1) % updaterHistoryLen
}

// updaterSince resolves the newest recorded updater whose version is
// past since; 0 when the window no longer covers it.
func (r *Recorder) updaterSince(table layout.TableID, key layout.Key, since uint64) uint64 {
	rs := r.recs[recKey{table, key}]
	if rs == nil {
		return 0
	}
	var best uint64
	var bestVer uint64
	for i := 0; i < rs.ringLen; i++ {
		e := &rs.ring[i]
		if e.version > since && e.version >= bestVer && e.id != 0 {
			best, bestVer = e.id, e.version
		}
	}
	return best
}

// TxnInfo is one transaction node in a snapshot.
type TxnInfo struct {
	ID      uint64     `json:"id"`
	Label   string     `json:"label"`
	Coord   uint64     `json:"coord"`
	Attempt int        `json:"attempts"`
	Start   sim.Time   `json:"start"`
	End     sim.Time   `json:"end"`
	State   State      `json:"state"`
	Reason  string     `json:"reason,omitempty"`
	Aborts  int        `json:"aborts,omitempty"`
	Cause   *CauseInfo `json:"cause,omitempty"`
}

// CauseInfo is the frozen conflict site of a transaction's last abort.
type CauseInfo struct {
	Seq    uint64         `json:"seq"`
	Kind   Kind           `json:"kind"`
	Table  layout.TableID `json:"table"`
	Key    layout.Key     `json:"key"`
	Mask   uint64         `json:"mask"`
	Holder uint64         `json:"holder"`
}

// Snapshot is an immutable copy of the recorder's state, the input to
// every view and exporter.
type Snapshot struct {
	Edges       []Edge    // emission order; merged: (at, partition, seq)
	Txns        []TxnInfo // begin order; merged: (start, partition, id)
	Dropped     uint64    // edges evicted from the ring
	TxnsDropped uint64    // transaction nodes evicted
}

// Snapshot copies the rings (oldest to newest). A nil recorder yields
// an empty snapshot. A partitioned recorder (see Shard) merges every
// child deterministically: edges order by (virtual time, partition,
// seq) — mirroring the window executor's mailbox merge — and
// transaction nodes by (start time, partition, id). Strided seqs and
// ids are kept as emitted so Cause references remain valid.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	children := r.fam.Children()
	if children == nil {
		return r.snapshotLocal()
	}
	out := &Snapshot{}
	edges := shard.NewMerge(r.Len(), func(e *Edge) (int64, uint64) { return int64(e.At), e.Seq })
	txns := shard.NewMerge(0, func(t *TxnInfo) (int64, uint64) { return int64(t.Start), t.ID })
	add := func(part int, c *Recorder) {
		out.Dropped += c.edges.Dropped()
		out.TxnsDropped += c.txns.Dropped()
		edges.AddRing(part, &c.edges)
		txns.Add(part, c.txnInfos()...)
	}
	add(-1, r)
	for i, c := range children {
		add(i, c)
	}
	out.Edges = edges.Sorted()
	out.Txns = txns.Sorted()
	return out
}

// snapshotLocal copies one recorder's own rings, oldest to newest.
func (r *Recorder) snapshotLocal() *Snapshot {
	return &Snapshot{
		Edges:       r.edges.AppendTo(make([]Edge, 0, r.edges.Len())),
		Txns:        r.txnInfos(),
		Dropped:     r.edges.Dropped(),
		TxnsDropped: r.txns.Dropped(),
	}
}

// txnInfos copies one recorder's own transaction nodes, oldest first.
func (r *Recorder) txnInfos() []TxnInfo {
	out := make([]TxnInfo, 0, r.txns.Len())
	r.txns.Each(func(run []*Txn) {
		for _, t := range run {
			ti := TxnInfo{ID: t.ID, Label: t.Label, Coord: t.Coord, Attempt: t.Attempt,
				Start: t.Start, End: t.End, State: t.State, Reason: t.Reason, Aborts: t.Aborts}
			if t.CauseSeq != 0 {
				ti.Cause = &CauseInfo{Seq: t.CauseSeq, Kind: t.CauseKind,
					Table: t.CauseTable, Key: t.CauseKey, Mask: t.CauseMask, Holder: t.Holder}
			}
			out = append(out, ti)
		}
	})
	return out
}

// Txn looks up a node by id (nil when unknown or evicted).
func (s *Snapshot) Txn(id uint64) *TxnInfo {
	for i := range s.Txns {
		if s.Txns[i].ID == id {
			return &s.Txns[i]
		}
	}
	return nil
}
