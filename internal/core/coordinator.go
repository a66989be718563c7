package core

import (
	"fmt"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
)

// Coordinator executes CREST transactions. Each coordinator belongs to
// one compute node and one simulated process.
type Coordinator struct {
	cn   *ComputeNode
	gid  uint64
	qps  *engine.QPCache
	log  *memnode.LogSegment
	logN []*memnode.Node
	home int // shard group holding the log (commit decision)
	// scFree recycles attempt scratch (see execScratch).
	scFree []*execScratch
}

// NewCoordinator creates coordinator id (globally unique across
// compute nodes).
func (cn *ComputeNode) NewCoordinator(id int) *Coordinator {
	db := cn.db
	pool := db.Pool
	c := &Coordinator{
		cn:  cn,
		gid: uint64(id) + 1,
		qps: engine.NewQPCache(db.Fabric),
		log: pool.AllocLog(logSegmentSize),
	}
	c.qps.Warm(pool)
	c.logN = pool.LogNodes(id, pool.Replicas()+1)
	c.home = pool.ShardOfNode(c.logN[0].ID)
	cn.sys.logs = append(cn.sys.logs, recoveryLog{seg: c.log, nodes: c.logN})
	return c
}

// writeShardsAccs returns the shard groups of every written record.
func (c *Coordinator) writeShardsAccs(accs []*access) engine.ShardSet {
	pool := c.cn.db.Pool
	var parts engine.ShardSet
	for _, acc := range accs {
		if acc.intentWrite {
			parts.Add(pool.ShardOfNode(acc.obj.primary.ID))
		}
	}
	return parts
}

// valCheck is one cell read that must be validated against the memory
// pool at commit.
//
// Base-value reads capture the expected epoch/timestamp at read time:
// no local writer of the cell can commit (and thus no write-back can
// move the pool) before this reader resolves, so the captured value is
// exactly what the pool must still hold — and it stays correct even if
// the record cache refetches the record meanwhile.
//
// Local-version reads (live == true) instead compare against the
// record cache's current epoch view at validation time: the version's
// chain may legitimately fold into the pool before this reader
// validates, advancing pool and cache in lockstep, while any foreign
// write diverges the two. readV remembers which version was read so
// the commit-time supersede check (validateLocal) can detect a local
// writer that committed in between.
type valCheck struct {
	cell  int
	en    uint16
	ts    uint64
	live  bool
	readV *version // nil for base reads
}

// access is the per-record state of one attempt.
type access struct {
	op            *engine.Op
	key           layout.Key
	rk            recKey
	lay           *layout.Record
	obj           *object
	intentWrite   bool
	registered    bool // reference counted on obj
	tracked       bool // access mask registered with the conflict tracker
	streakCounted bool // counted toward the object's piggyback streak
	readVals      [][]byte
	writeVals     [][]byte
	checks        []valCheck
}

// depSet is an insertion-ordered set of transactions to wait on. The
// handful of dependencies a transaction collects makes a linear scan
// cheaper than a map.
type depSet struct {
	list []*txnState
}

func (d *depSet) add(t *txnState) {
	for _, s := range d.list {
		if s == t {
			return
		}
	}
	d.list = append(d.list, t)
}

// Execute runs one attempt of t; the caller owns retry and backoff.
func (c *Coordinator) Execute(p *sim.Proc, t *engine.Txn) engine.Attempt {
	if !c.cn.sys.opts.Localized {
		return c.executeDirect(p, t)
	}
	return c.executeLocalized(p, t)
}

// executeLocalized is the full CREST path: record cache, pipelined
// execution, dependency tracking and parallel commits.
func (c *Coordinator) executeLocalized(p *sim.Proc, t *engine.Txn) engine.Attempt {
	db := c.cn.db
	at := engine.BeginAttempt(db, p, c.gid, c.home, t)
	sc := c.getScratch()
	defer c.putScratch(sc)

	me := &txnState{id: c.cn.nextTxnID(), whyID: at.WhyID()}
	at.Span().SetTxn(me.id)
	// deps are the creators of versions this transaction read or
	// overwrote (§5.1): it commits only after they commit, and aborts
	// with them.
	deps := &sc.deps

	abortTxn := func(reason engine.AbortReason, falseC bool) engine.Attempt {
		at.Fail(reason, falseC)
		me.resolve(txnAborted, 0)
		c.applyRelease(p, sc, sc.accs)
		return at.Done()
	}

	// --- Execution phase: pipelined blocks (§5.2). ---
	for bi := range t.Blocks {
		blk := &t.Blocks[bi]
		if gated := c.prepare(p, t, blk, sc); gated {
			return abortTxn(engine.AbortWait, false)
		}
		if db.Pool.Shards() > 1 && c.writeShardsAccs(sc.accs).Beyond(c.home) {
			at.MarkCrossShard()
		}
		at.Phase(trace.PhaseLock)
		admitReason, admitFalse := c.admit(p, sc, sc.blockAccs)
		at.Phase(trace.PhaseExec)
		if admitReason != engine.AbortNone {
			return abortTxn(admitReason, admitFalse)
		}
		// Charge the block's compute-node CPU cost (hook execution,
		// copies) before taking any local lock: the computation does
		// not need the locks, and paying it inside the critical
		// section would convoy every hot record's local queue.
		var blockCost sim.Duration
		for oi := range blk.Ops {
			op := &blk.Ops[oi]
			blockCost += db.Cost.OpCost(len(op.ReadCells) + len(op.WriteCells))
		}
		p.Sleep(blockCost)
		// Inner-block 2PL: local locks in (TableID, Key) order. The
		// critical section itself is pure bookkeeping (zero virtual
		// time), so the locks only order concurrent accessors.
		locked := append(sc.lockOrder[:0], sc.blockAccs...)
		sc.lockOrder = locked
		sortAccs(locked)
		for _, acc := range locked {
			if acc.obj.mu.Held() {
				// The lock-wait depth gauge counts coordinators about to
				// park behind a held local lock; an uncontended Lock
				// never parks and stays off the gauge.
				db.LockWaiters(1)
				holder := acc.obj.whyOwner
				t0 := p.Now()
				acc.obj.mu.Lock(p)
				db.LockWaiters(-1)
				db.LocalWait(p, acc.rk.table, acc.key, holder, t0)
			} else {
				acc.obj.mu.Lock(p)
			}
			acc.obj.whyOwner = me.whyID
		}
		if me.tsExec == 0 {
			// TS_exec is assigned after the first block's local locks
			// are acquired (§5.2).
			me.tsExec = c.cn.nextTSExec()
		}
		reason := engine.AbortNone
		for oi := range blk.Ops {
			op := &blk.Ops[oi]
			acc := findAcc(sc.accs, recKey{op.Table, op.ResolveKey(t.State)})
			if reason = c.execOp(p, t, me, acc, deps); reason != engine.AbortNone {
				break
			}
		}
		for _, acc := range locked {
			acc.obj.whyOwner = 0
			acc.obj.mu.Unlock()
		}
		if reason != engine.AbortNone {
			return abortTxn(reason, false)
		}
	}

	// --- Validation (§6): dependencies first, then remote epochs,
	// then the local supersede check immediately before the commit
	// timestamp is drawn (no yield in between, so the serial position
	// is exact). ---
	at.Phase(trace.PhaseValidate)
	for _, dep := range deps.list {
		waited := dep.status == txnPending
		t0 := p.Now()
		dep.await(p)
		if waited {
			db.DependencyWait(p, dep.whyID, t0)
		}
		if dep.status == txnAborted {
			return abortTxn(engine.AbortDependency, false)
		}
	}
	if reason, falseC := c.validateRemote(p, sc, sc.accs, at.Start()); reason != engine.AbortNone {
		return abortTxn(reason, falseC)
	}
	if !c.validateLocal(sc.accs) {
		return abortTxn(engine.AbortValidation, false)
	}

	// --- Commit (§6): timestamp, redo log, then parallel apply. ---
	at.Phase(trace.PhaseLog)
	ts := db.TSO.Next()
	me.tsAssigned = ts
	c.writeRedoLog(p, sc, me, ts, sc.accs, deps)
	me.resolve(txnCommitted, ts)
	at.Phase(trace.PhaseApply)
	c.applyRelease(p, sc, sc.accs)
	c.recordHistory(t, sc.accs, ts)
	return at.Done()
}

// prepare resolves the block's keys into accesses (sc.blockAccs),
// creating local objects, sitting out any pending release windows, and
// pinning the objects with reference counts. A writer reference
// registered while a drain is pending would itself keep `writers`
// above zero and stall the drain, so gating happens strictly before
// registration.
func (c *Coordinator) prepare(p *sim.Proc, t *engine.Txn, blk *engine.Block, sc *execScratch) (gated bool) {
	// Pass 1: resolve keys and local objects; no references yet.
	sc.blockAccs = sc.blockAccs[:0]
	for oi := range blk.Ops {
		op := &blk.Ops[oi]
		key := op.ResolveKey(t.State)
		rk := recKey{op.Table, key}
		if findAcc(sc.accs, rk) != nil || findAcc(sc.blockAccs, rk) != nil {
			panic(fmt.Sprintf("core: record %v accessed by two ops of one transaction", rk))
		}
		acc := sc.newAccess()
		acc.op = op
		acc.key = key
		acc.rk = rk
		acc.lay = c.cn.sys.layouts[op.Table]
		acc.intentWrite = op.IsWrite()
		acc.obj = c.getOrCreate(p, rk, acc.lay)
		sc.blockAccs = append(sc.blockAccs, acc)
	}
	// Pass 2: sit out release windows on every write target. Waiting
	// is only safe while this transaction holds nothing (its first
	// block): holding references while waiting can deadlock pipelines
	// against each other, so later blocks abort instead and retry.
	for {
		waited := false
		for _, acc := range sc.blockAccs {
			obj := acc.obj
			if !acc.intentWrite || (!obj.drainPending && obj.drainUntil <= p.Now()) {
				continue
			}
			if len(sc.accs) > 0 {
				return true
			}
			waited = true
			if obj.drainPending {
				obj.stateQ.Wait(p)
			} else {
				p.Sleep(sim.Duration(obj.drainUntil - p.Now()))
			}
		}
		if !waited {
			break
		}
	}
	// Pass 3: register the reference counts (§5.1).
	for _, acc := range sc.blockAccs {
		if acc.intentWrite {
			acc.obj.writers++
		} else {
			acc.obj.readers++
		}
		acc.registered = true
		sc.accs = append(sc.accs, acc)
	}
	return false
}

// sortAccs orders accesses by (TableID, Key). The order is total
// (duplicate records panic in prepare), so a plain insertion sort is
// equivalent to the previous sort.Slice and avoids its closure and
// interface boxing on a path taken once per block.
func sortAccs(accs []*access) {
	for i := 1; i < len(accs); i++ {
		a := accs[i]
		j := i - 1
		for j >= 0 && accLess(a, accs[j]) {
			accs[j+1] = accs[j]
			j--
		}
		accs[j+1] = a
	}
}

func accLess(a, b *access) bool {
	if a.rk.table != b.rk.table {
		return a.rk.table < b.rk.table
	}
	return a.rk.key < b.rk.key
}

// getOrCreate returns the record's local object, creating it (and
// resolving its pool address) on first access.
func (c *Coordinator) getOrCreate(p *sim.Proc, rk recKey, lay *layout.Record) *object {
	if obj, ok := c.cn.objs[rk]; ok {
		return obj
	}
	db := c.cn.db
	primary := db.Pool.PrimaryOf(rk.table, rk.key)
	off, err := db.ResolveAddr(p, c.cn.cache, c.qps.Get(primary.Region), rk.table, rk.key)
	if err != nil {
		panic(err)
	}
	obj := newObject(rk.table, rk.key, off, lay, primary)
	c.cn.objs[rk] = obj
	return obj
}

// admit performs cache admission (§5.1) for the block's accesses: it
// fetches uncached records and acquires the missing remote cell locks,
// batching everything per memory node into one round-trip. Only one
// coordinator admits a given record at a time; others wait.
func (c *Coordinator) admit(p *sim.Proc, sc *execScratch, blockAccs []*access) (engine.AbortReason, bool) {
	db := c.cn.db
	opts := c.cn.sys.opts
	tries := 0
	for {
		var waitObj *object
		sc.fetches, sc.locks = sc.fetches[:0], sc.locks[:0]
		for _, acc := range blockAccs {
			obj := acc.obj
			if obj.flushing || obj.releaseReq > 0 {
				waitObj = obj
				break
			}
			if obj.admitting {
				// Readers with an admitted base proceed against it —
				// commit-time validation handles staleness — instead
				// of serializing behind the in-flight refresh. Lock
				// acquirers and cold readers need the admission slot.
				if !obj.admitted || (acc.intentWrite &&
					c.cn.sys.lockMaskFor(acc.lay, acc.op)&^obj.remoteLocks != 0) {
					waitObj = obj
					break
				}
				continue
			}
			if acc.intentWrite && obj.drainPending {
				// A forced release window is pending on this record;
				// abort rather than wait — waiting here while holding
				// other records' references can deadlock compute-node
				// pipelines against each other.
				return engine.AbortWait, false
			}
			if !obj.admitted {
				sc.fetches = append(sc.fetches, acc)
			}
			if want := c.cn.sys.lockMaskFor(acc.lay, acc.op) &^ obj.remoteLocks; acc.intentWrite && want != 0 {
				sc.locks = append(sc.locks, acc)
			}
		}
		if waitObj != nil {
			waitObj.noteAdmitWait()
			// The admission/flush blocker is whichever coordinator is
			// inside the object's critical section; attribute the wait
			// to it when known.
			holder := waitObj.whyOwner
			t0 := p.Now()
			waitObj.stateQ.Wait(p)
			db.LocalWait(p, waitObj.table, waitObj.key, holder, t0)
			continue
		}
		if len(sc.fetches) == 0 && len(sc.locks) == 0 {
			// Everything cached and locked; register conflict-tracker
			// coverage for the write intents that piggybacked, and
			// count the piggyback streaks that gate lock retention.
			for _, acc := range blockAccs {
				c.track(acc)
				obj := acc.obj
				if acc.intentWrite && !acc.streakCounted {
					acc.streakCounted = true
					// streak > 0 means an earlier local txn already
					// counted against these locks: this one piggybacks.
					if obj.streak > 0 && obj.remoteLocks != 0 {
						db.Piggyback(p, obj.table, obj.key, obj.remoteLocks)
					}
					obj.streak++
					if k := opts.MaxPiggyback; k > 0 && obj.streak >= k && obj.remoteLocks != 0 {
						obj.drainPending = true
					}
				}
			}
			return engine.AbortNone, false
		}

		// Claim and fetch/lock in one PostMulti. Every lock
		// acquisition pairs the masked-CAS with a READ (Table 2's
		// masked-CAS+READ): when the object was already cached, the
		// read refreshes the base values of the cells that were not
		// locked until now — their cached values may predate another
		// compute node's commits, and locked cells skip validation.
		sc.pend = sc.pend[:0]
		sc.bat.Begin()
		add := func(acc *access) int {
			obj := acc.obj
			for i := range sc.pend {
				if sc.pend[i].obj == obj {
					return i
				}
			}
			sc.pend = append(sc.pend, admitPend{obj: obj, acc: acc, casIdx: -1, readIdx: -1})
			obj.admitting = true
			return len(sc.pend) - 1
		}
		for _, acc := range sc.locks {
			pi := add(acc)
			obj := acc.obj
			bits := c.cn.sys.lockMaskFor(acc.lay, acc.op) &^ obj.remoteLocks
			bi := sc.bat.Batch(obj.primary.Region)
			ci := sc.bat.Append(bi, rdma.Op{
				Kind: rdma.OpMaskedCAS,
				Off:  obj.off + layout.OffLock,
				Swap: bits, Mask: bits,
			})
			pd := &sc.pend[pi]
			pd.preLocks = obj.remoteLocks
			pd.bits = bits
			pd.casIdx = ci
		}
		for _, acc := range sc.fetches {
			pi := add(acc)
			sc.pend[pi].preLocks = acc.obj.remoteLocks
		}
		for i := range sc.pend {
			pd := &sc.pend[i]
			bi := sc.bat.Batch(pd.obj.primary.Region)
			pd.readIdx = sc.bat.Append(bi, rdma.Op{
				Kind: rdma.OpRead,
				Off:  pd.obj.off,
				Len:  pd.acc.lay.Size(),
			})
		}
		results, err := rdma.PostMulti(p, sc.bat.Batches())
		if err != nil {
			panic(err)
		}
		var conflictMask uint64
		conflict := false
		for i := range sc.pend {
			pd := &sc.pend[i]
			obj := pd.obj
			bi := sc.bat.Lookup(obj.primary.Region)
			if pd.casIdx >= 0 {
				if results[bi][pd.casIdx].OK {
					obj.remoteLocks |= pd.bits
					obj.streak = 0 // fresh acquisition opens a new window
					db.LockAcquired(p, obj.table, obj.key, pd.bits)
				} else {
					conflict = true
					conflictMask |= db.Tracker.HolderCells(obj.table, obj.key)
					db.LockConflict(p, obj.table, obj.key, pd.bits)
				}
			}
			if pd.readIdx >= 0 {
				h, vals, vers := decodeRecord(pd.acc.lay, results[bi][pd.readIdx].Data)
				readMask := layout.LockMask(pd.acc.op.ReadCells) &^ obj.remoteLocks
				switch {
				case h.Lock&layout.DeleteMask != 0:
					obj.admitting = false
					obj.stateQ.WakeAll()
					return engine.AbortValidation, false
				case !snapshotConsistent(h, vers, readMask, obj.remoteLocks):
					// Read cells locked by another compute node, or a
					// torn snapshot (§4.3): back off and refetch. The
					// object must be marked unadmitted — a lock CAS in
					// this very batch may have succeeded, and leaving
					// its cells with the pre-lock base would let a
					// writer read stale data without validation.
					obj.admitted = false
					conflict = true
					conflictMask |= db.Tracker.HolderCells(obj.table, obj.key)
					db.LockConflict(p, obj.table, obj.key, readMask)
				case !obj.admitted:
					copy(obj.epochs, h.EN[:obj.lay.NumCells()])
					obj.base = vals
					obj.baseVer = vers
					obj.admitted = true
					obj.firstFetch = p.Now()
				default:
					// Refresh the base of cells this compute node did
					// not hold locked: their cached values may predate
					// other nodes' commits. Locked cells (which is
					// where local versions can exist) keep the local
					// view.
					for cell := 0; cell < obj.lay.NumCells(); cell++ {
						if pd.preLocks&(1<<uint(cell)) != 0 {
							continue
						}
						obj.base[cell] = vals[cell]
						obj.baseVer[cell] = vers[cell]
						obj.epochs[cell] = h.EN[cell]
					}
					obj.firstFetch = p.Now()
				}
			}
			obj.admitting = false
			obj.stateQ.WakeAll()
		}
		if !conflict {
			continue // reloop to verify nothing else is missing
		}
		tries++
		if tries > opts.LockRetries {
			var myMask uint64
			for _, acc := range blockAccs {
				myMask |= accessMaskFor(acc.op)
			}
			return engine.AbortLockFail, engine.IsFalseConflict(myMask, conflictMask)
		}
		back := opts.LockBackoff + sim.Duration(p.Rand().Int63n(int64(opts.LockBackoff)))
		p.Sleep(back)
		db.Backoff(p, back)
	}
}

// track registers the access's cell coverage with the conflict
// tracker (instrumentation only).
func (c *Coordinator) track(acc *access) {
	if acc.tracked || !acc.intentWrite {
		return
	}
	acc.tracked = true
	c.cn.db.Tracker.OnLock(acc.rk.table, acc.rk.key, accessMaskFor(acc.op))
}

// execOp runs one op against the record cache under the block's local
// locks: reads observe the newest live version (or the base value),
// writes append versions tagged with TS_exec, and reverse orderings
// abort (§5.2).
func (c *Coordinator) execOp(p *sim.Proc, t *engine.Txn, me *txnState, acc *access, deps *depSet) engine.AbortReason {
	obj := acc.obj
	op := acc.op

	myLocks := c.cn.sys.lockMaskFor(acc.lay, op)
	read := acc.readVals[:0]
	for _, cell := range op.ReadCells {
		v, val := obj.latest(cell)
		cs := &obj.cells[cell]
		if v != nil && v.txn != me {
			if v.tsExec > me.tsExec {
				return engine.AbortReverse
			}
			if v.txn.status == txnPending {
				deps.add(v.txn)
			}
		}
		if myLocks&(1<<uint(cell)) == 0 {
			// Not covered by this transaction's own write locks: the
			// cell joins the commit-time validation set (§6).
			ck := valCheck{cell: cell, live: v != nil, readV: v}
			if v == nil {
				ck.en = obj.epochs[cell]
				ck.ts = obj.baseVer[cell].TS
			}
			acc.checks = append(acc.checks, ck)
		}
		if me.tsExec > cs.maxReadTS {
			cs.maxReadTS = me.tsExec
		}
		read = append(read, val)
	}
	acc.readVals = read

	written := op.Hook(t.State, read)
	if len(written) != len(op.WriteCells) {
		panic(fmt.Sprintf("core: hook returned %d values for %d write cells", len(written), len(op.WriteCells)))
	}
	acc.writeVals = written

	for i, cell := range op.WriteCells {
		if len(written[i]) != acc.lay.CellSize(cell) {
			panic("core: hook wrote wrong cell size")
		}
		cs := &obj.cells[cell]
		if cs.maxReadTS > me.tsExec {
			// A later transaction already read this cell; our write
			// arrives too late in TS_exec order (Fig 10, write side).
			return engine.AbortReverse
		}
		v := cs.newestLive()
		switch {
		case v != nil && v.txn == me:
			v.value = written[i]
			continue
		case v != nil:
			if v.tsExec > me.tsExec {
				return engine.AbortReverse
			}
			if v.txn.status == txnPending {
				deps.add(v.txn)
			}
		}
		obj.append(cell, &version{txn: me, tsExec: me.tsExec, value: written[i]})
	}
	return engine.AbortNone
}

// validateLocal is the commit-time supersede check: for every read
// cell, the value observed must still be the newest committed state of
// the record cache. A local writer that committed after the read (and
// thus holds an earlier commit timestamp than this transaction is
// about to draw) supersedes it. It runs with no yield between it and
// the TSO draw, so the outcome is exact.
func (c *Coordinator) validateLocal(accs []*access) bool {
	for _, acc := range accs {
		for _, ck := range acc.checks {
			cs := &acc.obj.cells[ck.cell]
			if ck.readV == nil {
				// Base read: a fold moved the base, or a committed
				// version now shadows it.
				if acc.obj.baseVer[ck.cell].TS != ck.ts {
					return false
				}
				for _, v := range cs.versions {
					if v.txn.tsAssigned != 0 {
						return false
					}
				}
				continue
			}
			// Version read: the creator resolved before this point
			// (dependency wait). The version must still be the newest
			// committed one — no committed successor in the list, and
			// if it was folded, it must be what the base now holds.
			if ck.readV.txn.status != txnCommitted {
				return false
			}
			inList := false
			for _, v := range cs.versions {
				if v == ck.readV {
					inList = true
					break
				}
			}
			if inList {
				// Committed successors after readV supersede the read.
				past := false
				for _, v := range cs.versions {
					if v == ck.readV {
						past = true
						continue
					}
					if past && v.txn.tsAssigned != 0 {
						return false
					}
				}
			} else {
				// Folded: the base must hold exactly this version and
				// no committed successor may sit in the list.
				if acc.obj.baseVer[ck.cell].TS != ck.readV.txn.tsCommit {
					return false
				}
				for _, v := range cs.versions {
					if v.txn.tsAssigned != 0 {
						return false
					}
				}
			}
		}
	}
	return true
}

// validateRemote checks every base read of an unlocked cell against
// the memory pool: one header READ per record, batched per node. Past
// the EN threshold it reads whole records and compares commit
// timestamps instead (§4.2).
func (c *Coordinator) validateRemote(p *sim.Proc, sc *execScratch, accs []*access, attemptStart sim.Time) (engine.AbortReason, bool) {
	db := c.cn.db
	fallback := p.Now().Sub(attemptStart) > c.cn.sys.opts.ENThreshold
	sc.bat.Begin()
	for i := range sc.batchAccs {
		sc.batchAccs[i] = sc.batchAccs[i][:0]
	}
	for _, acc := range accs {
		if len(acc.checks) == 0 {
			continue
		}
		obj := acc.obj
		bi := sc.bat.Batch(obj.primary.Region)
		for bi >= len(sc.batchAccs) {
			sc.batchAccs = append(sc.batchAccs, nil)
		}
		n := layout.HeaderSize
		if fallback {
			n = acc.lay.Size()
		}
		sc.bat.Append(bi, rdma.Op{Kind: rdma.OpRead, Off: obj.off, Len: n})
		sc.batchAccs[bi] = append(sc.batchAccs[bi], acc)
	}
	batches := sc.bat.Batches()
	if len(batches) == 0 {
		return engine.AbortNone, false
	}
	results, err := rdma.PostMulti(p, batches)
	if err != nil {
		panic(err)
	}
	for bi := range batches {
		for ri, acc := range sc.batchAccs[bi] {
			data := results[bi][ri].Data
			h := layout.DecodeHeader(data)
			obj := acc.obj
			otherLocks := h.Lock &^ obj.remoteLocks &^ layout.DeleteMask
			for _, ck := range acc.checks {
				wantEN, wantTS := ck.en, ck.ts
				if ck.live {
					wantEN, wantTS = obj.epochs[ck.cell], obj.baseVer[ck.cell].TS
				}
				bit := uint64(1) << uint(ck.cell)
				ok := otherLocks&bit == 0
				if ok {
					if fallback {
						ok = layout.GetCellVersion(data[acc.lay.CellOff(ck.cell):]).TS == wantTS
					} else {
						ok = h.EN[ck.cell] == wantEN
					}
				}
				if ok {
					continue
				}
				// Force a refetch only when the cache itself is behind
				// the pool — a reader whose own capture is outdated
				// must abort, but invalidating an already-refreshed
				// shared object would put every local accessor into a
				// refetch storm.
				if h.EN[ck.cell] != obj.epochs[ck.cell] &&
					p.Now().Sub(obj.firstFetch) > c.cn.sys.opts.FetchTTL {
					obj.admitted = false
				}
				conflicting := db.Tracker.ChangedSince(acc.rk.table, acc.key, wantTS)
				if otherLocks&bit != 0 {
					conflicting |= db.Tracker.HolderCells(acc.rk.table, acc.key)
				}
				myMask := accessMaskFor(acc.op)
				db.ValidationConflict(p, acc.rk.table, acc.key, bit, wantTS)
				return engine.AbortValidation, engine.IsFalseConflict(myMask, conflicting)
			}
		}
	}
	return engine.AbortNone, false
}

// writeRedoLog persists the dependency-tracking redo-log entry to the
// coordinator's log replicas in one round-trip (§6). Transactions that
// wrote nothing skip the log.
func (c *Coordinator) writeRedoLog(p *sim.Proc, sc *execScratch, me *txnState, ts uint64, accs []*access, deps *depSet) {
	nr := 0
	for _, acc := range accs {
		if len(acc.op.WriteCells) == 0 {
			continue
		}
		if nr == len(sc.recs) {
			sc.recs = append(sc.recs, logRecord{})
		}
		r := &sc.recs[nr]
		nr++
		r.Table, r.Key, r.Mask = acc.rk.table, acc.key, layout.LockMask(acc.op.WriteCells)
		r.Vals = r.Vals[:0]
		// Values must be in ascending cell order to match the mask.
		sc.idx = sc.idx[:0]
		for i := range acc.op.WriteCells {
			sc.idx = append(sc.idx, i)
		}
		sortByCell(sc.idx, acc.op.WriteCells)
		for _, i := range sc.idx {
			r.Vals = append(r.Vals, acc.writeVals[i])
		}
	}
	if nr == 0 {
		return
	}
	sc.depIDs = sc.depIDs[:0]
	for _, d := range deps.list {
		sc.depIDs = append(sc.depIDs, d.id)
	}
	entry := appendLogEntry(sc.logBuf[:0], me.id, ts, sc.depIDs, sc.recs[:nr])
	sc.logBuf = entry
	off := c.log.Reserve(len(entry))
	// Cross-shard commits pay a prepare round first: the entry lands
	// on every other participating group's log mirrors before the
	// home group's decision write.
	if parts := c.writeShardsAccs(accs); parts.Beyond(c.home) {
		engine.PrepareCrossShard(p, c.cn.db, c.qps, c.logN, c.home, parts, off, entry)
	}
	c.postLog(p, sc, off, entry)
}

// postLog writes one encoded entry to every log replica in one
// round-trip, through the scratch's persistent batch slice.
func (c *Coordinator) postLog(p *sim.Proc, sc *execScratch, off uint64, entry []byte) {
	if cap(sc.logBatches) < len(c.logN) {
		sc.logBatches = make([]rdma.Batch, len(c.logN))
	}
	sc.logBatches = sc.logBatches[:len(c.logN)]
	for i, n := range c.logN {
		sc.logBatches[i].QP = c.qps.Get(n.Region)
		sc.logBatches[i].Ops = append(sc.logBatches[i].Ops[:0], rdma.Op{Kind: rdma.OpWrite, Off: off, Data: entry})
	}
	if _, err := rdma.PostMulti(p, sc.logBatches); err != nil {
		panic(err)
	}
}

// sortByCell insertion-sorts idx so cells[idx] ascends; cell lists
// are tiny and duplicate-free.
func sortByCell(idx []int, cells []int) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i - 1
		for j >= 0 && cells[x] < cells[idx[j]] {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
}

// applyRelease ends the transaction's participation in its objects:
// reference counts drop, the last writer of each object writes the
// newest committed cell values back (last-writer-wins, §6), and the
// last reference releases the remote locks and destroys the object.
func (c *Coordinator) applyRelease(p *sim.Proc, sc *execScratch, accs []*access) {
	db := c.cn.db
	for _, acc := range accs {
		if !acc.registered {
			continue
		}
		acc.registered = false
		if acc.intentWrite {
			acc.obj.writers--
		} else {
			acc.obj.readers--
		}
		if acc.tracked {
			acc.tracked = false
			db.Tracker.OnUnlock(acc.rk.table, acc.rk.key, accessMaskFor(acc.op))
		}
	}

	c.cn.scanGen++
	g := c.cn.scanGen
	objs := sc.objs[:0]
	for _, acc := range accs {
		if acc.obj.scanGen != g {
			acc.obj.scanGen = g
			objs = append(objs, acc.obj)
		}
	}
	sc.objs = objs
	// Triage: most objects need nothing from this transaction (a later
	// writer will flush, or the object is unlocked and still
	// referenced) and must not wait behind hot-object admission
	// traffic — that tax would serialize the whole read path.
	work := sc.work[:0]
	for _, obj := range objs {
		if obj.writers > 0 {
			continue // a later writer will flush and release
		}
		if obj.remoteLocks == 0 {
			if obj.refTotal() == 0 && !obj.flushing && !obj.admitting {
				delete(c.cn.objs, obj.rkKey())
			}
			continue
		}
		work = append(work, obj)
	}
	sc.work = work
	if len(work) == 0 {
		return
	}
	// Wait until none of the remaining objects is mid-admission or
	// mid-flush (each bounded by one round-trip) before claiming any:
	// skipping busy objects would leave the last writer's release —
	// and a pending drain — to chance under heavy reader refetch
	// traffic, while claiming-then-waiting would let two releasing
	// coordinators deadlock on each other's claims. releaseReq keeps
	// new admissions from barging in ahead of this release.
	for _, obj := range work {
		obj.releaseReq++
	}
	for {
		busy := false
		for _, obj := range work {
			if obj.admitting || obj.flushing {
				busy = true
				holder := obj.whyOwner
				t0 := p.Now()
				obj.stateQ.Wait(p)
				db.LocalWait(p, obj.table, obj.key, holder, t0)
				break
			}
		}
		if !busy {
			break
		}
	}
	for _, obj := range work {
		obj.releaseReq--
	}
	defer func() {
		for _, obj := range work {
			if obj.releaseReq == 0 && !obj.flushing && !obj.admitting {
				obj.stateQ.WakeAll()
			}
		}
	}()
	sc.bat.Begin()
	sc.fins = sc.fins[:0]
	for _, obj := range work {
		if obj.writers > 0 {
			continue // a later writer registered meanwhile; it flushes
		}
		if obj.remoteLocks == 0 {
			if obj.refTotal() == 0 {
				delete(c.cn.objs, obj.rkKey())
			}
			continue
		}
		// writers == 0 with locks held: this transaction is the last
		// writer (or a reader draining a locked object). Per §6 the
		// last writer writes the newest committed values back and
		// releases the locks, even while readers remain — their reads
		// validate against the epoch numbers at commit.
		obj.flushing = true
		sc.fins = append(sc.fins, fin{obj: obj, plans: obj.collectFlush(), release: true, unlock: obj.remoteLocks})
		c.buildFlushOps(sc, &sc.fins[len(sc.fins)-1])
	}
	if batches := sc.bat.Batches(); len(batches) > 0 {
		if _, err := rdma.PostMulti(p, batches); err != nil {
			panic(err)
		}
	}
	for i := range sc.fins {
		f := &sc.fins[i]
		obj := f.obj
		for _, plan := range f.plans {
			db.Tracker.OnUpdate(obj.table, obj.key, plan.ts, 1<<uint(plan.cell))
			db.CommittedUpdate(plan.why, obj.table, obj.key, plan.ts, 1<<uint(plan.cell))
			// A fold of more than 65536 epochs — or one landing exactly
			// on the wrap — silently reuses epoch numbers; validation
			// correctness then rests on the EN-threshold fallback, so
			// the rollover is worth a trace event.
			if before := plan.en - uint16(plan.bumps); plan.en < before {
				db.ENOverflow(p, obj.table, obj.key, plan.cell)
			}
		}
		db.LockReleased(p, obj.table, obj.key, obj.remoteLocks)
		obj.remoteLocks = 0
		obj.streak = 0
		if obj.drainPending {
			obj.drainPending = false
			obj.drainUntil = p.Now().Add(c.cn.sys.opts.DrainGrace)
		}
		obj.flushing = false
		obj.stateQ.WakeAll()
		if obj.refTotal() == 0 {
			delete(c.cn.objs, obj.rkKey())
		}
	}
}

func (o *object) rkKey() recKey { return recKey{o.table, o.key} }

// fin is one object's pending write-back during applyRelease.
type fin struct {
	obj     *object
	plans   []flushPlan
	release bool
	unlock  uint64
}

// buildFlushOps emits the last-writer write-back for one object into
// the scratch batcher: each committed cell's version word + value, its
// header epoch number, and (when the object is quiescent) the unlock
// masked-CAS, ordered within the round-trip. Backup replicas receive
// the data writes; the lock lives on the primary.
func (c *Coordinator) buildFlushOps(sc *execScratch, f *fin) {
	obj := f.obj
	db := c.cn.db
	for _, n := range db.Pool.ReplicaNodes(obj.table, obj.key) {
		release := f.release && n == obj.primary && f.unlock != 0
		if len(f.plans) > 0 || release {
			bi := sc.bat.Batch(n.Region)
			for _, plan := range f.plans {
				slot := sc.bytes(layout.CellVersionSize + len(plan.value))
				layout.PutCellVersion(slot, layout.CellVersion{EN: plan.en, TS: plan.ts})
				copy(slot[layout.CellVersionSize:], plan.value)
				enb := sc.bytes(2)
				enb[0] = byte(plan.en)
				enb[1] = byte(plan.en >> 8)
				sc.bat.Append(bi, rdma.Op{Kind: rdma.OpWrite, Off: obj.off + uint64(obj.lay.CellOff(plan.cell)), Data: slot})
				sc.bat.Append(bi, rdma.Op{Kind: rdma.OpWrite, Off: obj.off + uint64(obj.lay.ENOff(plan.cell)), Data: enb})
			}
			if release {
				sc.bat.Append(bi, rdma.Op{
					Kind:    rdma.OpMaskedCAS,
					Off:     obj.off + layout.OffLock,
					Compare: f.unlock,
					Swap:    0,
					Mask:    f.unlock,
				})
			}
		}
		if len(f.plans) == 0 {
			// Pure unlock: nothing to write on backups.
			break
		}
	}
}

// recordHistory feeds the committed transaction into the history
// checker.
func (c *Coordinator) recordHistory(t *engine.Txn, accs []*access, ts uint64) {
	h := c.cn.db.History
	if h == nil || !h.On {
		return
	}
	ht := engine.HTxn{TS: ts, Label: fmt.Sprintf("%s cn%d", t.Label, c.cn.id)}
	for _, acc := range accs {
		for i, cell := range acc.op.ReadCells {
			ht.Reads = append(ht.Reads, engine.HRead{
				Cell: engine.CellID{Table: acc.rk.table, Key: acc.key, Cell: cell},
				Hash: engine.HashValue(acc.readVals[i]),
			})
		}
		for i, cell := range acc.op.WriteCells {
			ht.Writes = append(ht.Writes, engine.HWrite{
				Cell: engine.CellID{Table: acc.rk.table, Key: acc.key, Cell: cell},
				Hash: engine.HashValue(acc.writeVals[i]),
			})
		}
	}
	h.Commit(ht)
}
