package core

import (
	"fmt"

	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/sim"
)

// txnStatus tracks a local transaction's lifecycle for dependency
// tracking (§5.1 of the paper).
type txnStatus int

const (
	txnPending txnStatus = iota
	txnCommitted
	txnAborted
)

// txnState is the per-transaction record other local transactions
// depend on. A dependent waits on waitQ until the transaction
// resolves.
type txnState struct {
	id     uint64
	tsExec uint64
	status txnStatus
	// whyID is the causality recorder's id for this transaction (0
	// when recording is off), so dependency waits and flushed versions
	// can be attributed to their creator.
	whyID uint64
	// tsAssigned is set the instant the commit timestamp is drawn,
	// before the redo-log round-trip; once set, commit is inevitable.
	// The supersede check orders against it rather than against the
	// (later) resolve.
	tsAssigned uint64
	tsCommit   uint64
	waitQ      sim.WaitQueue
}

// WaitLabel renders waitQ's label for observers and deadlock reports
// (sim.Labeler), so awaiting a transaction formats nothing.
func (t *txnState) WaitLabel() string {
	return fmt.Sprintf("await txn%d(tsExec=%d,status=%d)", t.id, t.tsExec, t.status)
}

// resolve publishes the outcome and wakes every dependent.
func (t *txnState) resolve(status txnStatus, tsCommit uint64) {
	t.status = status
	t.tsCommit = tsCommit
	t.waitQ.WakeAll()
}

// await blocks p until the transaction resolves.
func (t *txnState) await(p *sim.Proc) {
	t.waitQ.SetLabeler(t)
	for t.status == txnPending {
		t.waitQ.Wait(p)
	}
}

// version is one uncommitted (or committed-but-unflushed) local value
// of a single cell, tagged with its creator's execution timestamp
// (§5.2: block ordering coordination).
type version struct {
	txn    *txnState
	tsExec uint64
	value  []byte
}

// cellState is the per-cell slice of a local object.
type cellState struct {
	versions  []*version // ordered by tsExec (ascending)
	maxReadTS uint64     // highest TS_exec that read this cell
}

// newestLive returns the newest non-aborted version, or nil.
func (c *cellState) newestLive() *version {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].txn.status != txnAborted {
			return c.versions[i]
		}
	}
	return nil
}

// object is a local object in the record cache (§5.1): the compute
// node's shared view of one record, carrying the reference counter,
// the epoch array and the version lists, plus the remote cell locks
// the compute node holds on the record.
type object struct {
	table   layout.TableID
	key     layout.Key
	off     uint64
	lay     *layout.Record
	primary *memnode.Node

	mu sim.Mutex // local 2PL lock (one per object, §5.2)

	readers int // reference counter: local txns reading the record
	writers int // reference counter: local txns updating the record

	admitted  bool // base/epochs populated from the memory pool
	admitting bool // one coordinator is fetching (cache admission)
	flushing  bool // last writer is writing back
	// releaseReq counts coordinators about to release/flush this
	// object; admissions hold off while it is nonzero so a steady
	// stream of reader refetches cannot starve the last writer's
	// release.
	releaseReq int
	stateQ     sim.WaitQueue // waiters for admission / flush transitions
	// stateSnap is what stateQ's label reports: the object's state
	// when an admission waiter last parked (see noteAdmitWait).
	stateSnap stateSnap

	// streak counts consecutive write transactions that piggybacked on
	// the held remote locks; past Options.MaxPiggyback, drainPending
	// turns away new writers until the last writer releases, giving
	// other compute nodes a window to acquire the cells.
	streak       int
	drainPending bool
	// drainUntil extends the release window after the locks drop:
	// local writers hold back until this instant so contending compute
	// nodes can win the cells (locals otherwise recapture at the very
	// release instant, starving remote writers).
	drainUntil sim.Time

	// scanGen is the compute node's dedup stamp (see applyRelease).
	scanGen uint64

	// whyOwner is the causality id of the transaction currently inside
	// the object's local critical section (0 when recording is off or
	// the mutex is free), read by waiters to attribute local-wait
	// edges. Maintained unconditionally — a plain uint64 store.
	whyOwner uint64

	remoteLocks uint64               // cell lock bits this CN holds in the pool
	epochs      []uint16             // CN view of the pool's EN array
	base        [][]byte             // committed cell values (CN view)
	baseVer     []layout.CellVersion // cell versions matching base
	cells       []cellState          // per-cell version lists
	firstFetch  sim.Time             // when base was fetched (EN threshold)
}

func newObject(table layout.TableID, key layout.Key, off uint64, lay *layout.Record, primary *memnode.Node) *object {
	n := lay.NumCells()
	o := &object{
		table:   table,
		key:     key,
		off:     off,
		lay:     lay,
		primary: primary,
		epochs:  make([]uint16, n),
		base:    make([][]byte, n),
		baseVer: make([]layout.CellVersion, n),
		cells:   make([]cellState, n),
	}
	o.mu.SetLabeler((*mutexLabel)(o))
	return o
}

// stateSnap is the slice of object state stateQ's label reports.
type stateSnap struct {
	admitting, flushing bool
	locks               uint64
	writers, readers    int
}

// noteAdmitWait records the object's state for stateQ's label just
// before an admission waiter parks. Only the plain fields are copied;
// the label is formatted if and when something reads it.
func (o *object) noteAdmitWait() {
	o.stateSnap = stateSnap{o.admitting, o.flushing, o.remoteLocks, o.writers, o.readers}
	o.stateQ.SetLabeler((*stateLabel)(o))
}

// mutexLabel and stateLabel are the object viewed as the sim.Labeler
// of its mutex and of stateQ: the conversion from *object is free, so
// installing either allocates nothing.
type (
	mutexLabel object
	stateLabel object
)

func (o *mutexLabel) WaitLabel() string {
	return fmt.Sprintf("mutex obj %d/%d", o.table, o.key)
}

func (o *stateLabel) WaitLabel() string {
	s := &o.stateSnap
	return fmt.Sprintf("obj %d/%d admitting=%v flushing=%v locks=%b w=%d r=%d",
		o.table, o.key, s.admitting, s.flushing, s.locks, s.writers, s.readers)
}

// refTotal is the object's total reference count.
func (o *object) refTotal() int { return o.readers + o.writers }

// latest returns the value a reader at tsExec should observe for cell
// c and the version it came from (nil when the base value applies).
func (o *object) latest(c int) (*version, []byte) {
	if v := o.cells[c].newestLive(); v != nil {
		return v, v.value
	}
	return nil, o.base[c]
}

// append installs a new version of cell c.
func (o *object) append(c int, v *version) {
	o.cells[c].versions = append(o.cells[c].versions, v)
}

// dropAborted removes aborted versions from every cell list.
func (o *object) dropAborted() {
	for c := range o.cells {
		live := o.cells[c].versions[:0]
		for _, v := range o.cells[c].versions {
			if v.txn.status != txnAborted {
				live = append(live, v)
			}
		}
		o.cells[c].versions = live
	}
}

// flushPlan describes what the last writer must write back for one
// cell: the newest committed value, its commit timestamp, and how many
// epoch increments the folded versions represent.
type flushPlan struct {
	cell  int
	value []byte
	ts    uint64
	en    uint16 // epoch number after the folded bumps
	bumps int
	why   uint64 // causality id of the version's creator (0 = off)
}

// collectFlush folds every committed version into the base and returns
// the write-back plan. It must run when writers == 0, i.e. when every
// version is resolved. Pending versions cannot exist then.
//
// Pending readers of the folded versions need no bookkeeping here:
// they revalidate at commit (the fold moves the base commit timestamp,
// which their supersede check compares against).
func (o *object) collectFlush() []flushPlan {
	o.dropAborted()
	var plans []flushPlan
	for c := range o.cells {
		cs := &o.cells[c]
		vs := cs.versions
		if len(vs) == 0 {
			continue
		}
		newest := vs[len(vs)-1]
		if newest.txn.status != txnCommitted {
			panic("core: flush with unresolved version")
		}
		bumps := len(vs)
		en := o.epochs[c] + uint16(bumps)
		plans = append(plans, flushPlan{cell: c, value: newest.value, ts: newest.txn.tsCommit, en: en, bumps: bumps, why: newest.txn.whyID})
		o.epochs[c] = en
		o.base[c] = newest.value
		o.baseVer[c] = layout.CellVersion{EN: en, TS: newest.txn.tsCommit}
		cs.versions = nil
	}
	return plans
}
