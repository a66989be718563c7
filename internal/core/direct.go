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

// executeDirect is the strict (non-localized) execution path used by
// the factor-analysis Base and +Cell configurations (§8.4, Exp#5): no
// record cache, locks held from fetch to commit, every read validated
// remotely. With CellLevel on it still locks and validates at cell
// granularity via the CREST record structure.
func (c *Coordinator) executeDirect(p *sim.Proc, t *engine.Txn) engine.Attempt {
	db := c.cn.db
	at := engine.BeginAttempt(db, p, c.gid, c.home, t)
	sc := c.getScratch()
	defer c.putScratch(sc)

	for bi := range t.Blocks {
		blk := &t.Blocks[bi]
		blockWs := c.dPrepare(p, t, blk, sc)
		sc.dWs = append(sc.dWs, blockWs...)
		if db.Pool.Shards() > 1 && c.writeShardsDworks(sc.dWs).Beyond(c.home) {
			at.MarkCrossShard()
		}
		at.Phase(trace.PhaseLock)
		reason, falseC := c.dFetch(p, sc, blockWs)
		at.Phase(trace.PhaseExec)
		if reason != engine.AbortNone {
			// Release before Fail: the strict path has always charged
			// abort-time lock release to the phase that failed.
			c.dRelease(p, sc, sc.dWs)
			at.Fail(reason, falseC)
			return at.Done()
		}
		for oi := range blk.Ops {
			op := &blk.Ops[oi]
			w := findDwork(sc.dWs, recKey{op.Table, op.ResolveKey(t.State)})
			c.dApplyOp(p, t, op, w)
		}
	}

	at.Phase(trace.PhaseValidate)
	if reason, falseC := c.dValidate(p, sc, sc.dWs, at.Start()); reason != engine.AbortNone {
		c.dRelease(p, sc, sc.dWs)
		at.Fail(reason, falseC)
		return at.Done()
	}

	at.Phase(trace.PhaseLog)
	ts := db.TSO.Next()
	c.dWriteLog(p, sc, sc.dWs, ts)
	at.Phase(trace.PhaseApply)
	c.dInstall(p, sc, sc.dWs, ts, at.WhyID())
	c.dRecord(t, sc.dWs, ts)
	return at.Done()
}

// dwork is the direct path's per-record attempt state.
type dwork struct {
	op        *engine.Op
	key       layout.Key
	rk        recKey
	off       uint64
	lay       *layout.Record
	primary   *memnode.Node
	lockBits  uint64 // remote cell locks held
	vals      [][]byte
	vers      []layout.CellVersion
	hdr       layout.Header
	checks    []valCheck
	tracked   bool
	readVals  [][]byte
	writeVals [][]byte
}

func (w *dwork) table() layout.TableID { return w.lay.Schema.ID }

func (c *Coordinator) dPrepare(p *sim.Proc, t *engine.Txn, blk *engine.Block, sc *execScratch) []*dwork {
	db := c.cn.db
	sc.dBlock = sc.dBlock[:0]
	for oi := range blk.Ops {
		op := &blk.Ops[oi]
		key := op.ResolveKey(t.State)
		rk := recKey{op.Table, key}
		if findDwork(sc.dWs, rk) != nil || findDwork(sc.dBlock, rk) != nil {
			panic(fmt.Sprintf("core: record %v accessed by two ops of one transaction", rk))
		}
		lay := c.cn.sys.layouts[op.Table]
		primary := db.Pool.PrimaryOf(op.Table, key)
		off, err := db.ResolveAddr(p, c.cn.cache, c.qps.Get(primary.Region), op.Table, key)
		if err != nil {
			panic(err)
		}
		w := sc.newDwork()
		w.op, w.key, w.rk, w.off, w.lay, w.primary = op, key, rk, off, lay, primary
		sc.dBlock = append(sc.dBlock, w)
	}
	sortDworks(sc.dBlock)
	return sc.dBlock
}

// sortDworks orders records by (TableID, Key); the order is total
// (duplicates panic in dPrepare), so the insertion sort matches the
// previous sort.Slice byte for byte.
func sortDworks(ws []*dwork) {
	for i := 1; i < len(ws); i++ {
		w := ws[i]
		j := i - 1
		for j >= 0 && dworkLess(w, ws[j]) {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = w
	}
}

func dworkLess(a, b *dwork) bool {
	if a.table() != b.table() {
		return a.table() < b.table()
	}
	return a.key < b.key
}

// dFetch locks and reads the block's records: masked-CAS + READ per
// read-write record, READ per read-only record, all batched per node
// into one round-trip. Inconsistent snapshots and foreign locks on
// read cells trigger bounded refetches (§4.3).
func (c *Coordinator) dFetch(p *sim.Proc, sc *execScratch, ws []*dwork) (engine.AbortReason, bool) {
	if len(ws) == 0 {
		return engine.AbortNone, false
	}
	db := c.cn.db
	opts := c.cn.sys.opts
	todo := append(sc.dTodo[:0], ws...)
	for tries := 0; ; tries++ {
		sc.bat.Begin()
		sc.dSlots = sc.dSlots[:0]
		for _, w := range todo {
			bi := sc.bat.Batch(w.primary.Region)
			sc.dSlots = append(sc.dSlots, dslot{w: w, casIdx: -1})
			s := &sc.dSlots[len(sc.dSlots)-1]
			if want := c.cn.sys.lockMaskFor(w.lay, w.op) &^ w.lockBits; want != 0 {
				s.casIdx = sc.bat.Append(bi, rdma.Op{
					Kind: rdma.OpMaskedCAS,
					Off:  w.off + layout.OffLock,
					Swap: want, Mask: want,
				})
			}
			s.rdIdx = sc.bat.Append(bi, rdma.Op{Kind: rdma.OpRead, Off: w.off, Len: w.lay.Size()})
		}
		results, err := rdma.PostMulti(p, sc.bat.Batches())
		if err != nil {
			panic(err)
		}
		retry := sc.dRetry[:0]
		var conflictMask, myMask uint64
		lockFailed := false
		for i := range sc.dSlots {
			// Every result must be processed before any abort return:
			// a sibling CAS in the same batch may have succeeded and
			// its lock bits must be recorded so the abort path can
			// release them.
			s := &sc.dSlots[i]
			w := s.w
			bi := sc.bat.Lookup(w.primary.Region)
			if s.casIdx >= 0 {
				if results[bi][s.casIdx].OK {
					want := c.cn.sys.lockMaskFor(w.lay, w.op) &^ w.lockBits
					w.lockBits |= want
					db.Tracker.OnLock(w.table(), w.key, accessMaskFor(w.op))
					w.tracked = true
					db.LockAcquired(p, w.table(), w.key, want)
				} else {
					// No-wait on write locks: the attempt aborts.
					lockFailed = true
					conflictMask |= db.Tracker.HolderCells(w.table(), w.key)
					myMask |= accessMaskFor(w.op)
					db.LockConflict(p, w.table(), w.key, c.cn.sys.lockMaskFor(w.lay, w.op)&^w.lockBits)
					continue
				}
			}
			h, vals, vers := decodeRecord(w.lay, results[bi][s.rdIdx].Data)
			readMask := layout.LockMask(w.op.ReadCells) &^ w.lockBits
			if !snapshotConsistent(h, vers, readMask, w.lockBits) {
				retry = append(retry, w)
				conflictMask |= db.Tracker.HolderCells(w.table(), w.key)
				myMask |= accessMaskFor(w.op)
				db.LockConflict(p, w.table(), w.key, readMask)
				continue
			}
			w.hdr, w.vals, w.vers = h, vals, vers
			for _, cell := range w.op.ReadCells {
				if w.lockBits&(1<<uint(cell)) == 0 {
					w.checks = append(w.checks, valCheck{cell: cell, en: h.EN[cell], ts: vers[cell].TS})
				}
			}
		}
		if lockFailed {
			return engine.AbortLockFail, engine.IsFalseConflict(myMask, conflictMask)
		}
		if len(retry) == 0 {
			return engine.AbortNone, false
		}
		if tries >= opts.LockRetries {
			return engine.AbortLockFail, engine.IsFalseConflict(myMask, conflictMask)
		}
		// Ping-pong the two scratch lists so the next round's retry
		// collection reuses this round's todo backing.
		sc.dTodo, sc.dRetry = retry, todo[:0]
		todo = retry
		back := opts.LockBackoff + sim.Duration(p.Rand().Int63n(int64(opts.LockBackoff)))
		p.Sleep(back)
		db.Backoff(p, back)
	}
}

func (c *Coordinator) dApplyOp(p *sim.Proc, t *engine.Txn, op *engine.Op, w *dwork) {
	db := c.cn.db
	read := w.readVals[:0]
	for _, cell := range op.ReadCells {
		read = append(read, append([]byte(nil), w.vals[cell]...))
	}
	w.readVals = read
	p.Sleep(db.Cost.OpCost(len(op.ReadCells) + len(op.WriteCells)))
	written := op.Hook(t.State, read)
	if len(written) != len(op.WriteCells) {
		panic(fmt.Sprintf("core: hook returned %d values for %d write cells", len(written), len(op.WriteCells)))
	}
	for i, cell := range op.WriteCells {
		if len(written[i]) != w.lay.CellSize(cell) {
			panic("core: hook wrote wrong cell size")
		}
		w.vals[cell] = written[i]
	}
	w.writeVals = written
}

// dValidate re-reads record headers and compares epoch numbers (or
// full records and commit timestamps past the EN threshold).
func (c *Coordinator) dValidate(p *sim.Proc, sc *execScratch, ws []*dwork, attemptStart sim.Time) (engine.AbortReason, bool) {
	db := c.cn.db
	fallback := p.Now().Sub(attemptStart) > c.cn.sys.opts.ENThreshold
	sc.bat.Begin()
	for i := range sc.dBatchW {
		sc.dBatchW[i] = sc.dBatchW[i][:0]
	}
	for _, w := range ws {
		if len(w.checks) == 0 {
			continue
		}
		bi := sc.bat.Batch(w.primary.Region)
		for bi >= len(sc.dBatchW) {
			sc.dBatchW = append(sc.dBatchW, nil)
		}
		n := layout.HeaderSize
		if fallback {
			n = w.lay.Size()
		}
		sc.bat.Append(bi, rdma.Op{Kind: rdma.OpRead, Off: w.off, Len: n})
		sc.dBatchW[bi] = append(sc.dBatchW[bi], w)
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
		for ri, w := range sc.dBatchW[bi] {
			data := results[bi][ri].Data
			h := layout.DecodeHeader(data)
			otherLocks := h.Lock &^ w.lockBits &^ layout.DeleteMask
			for _, ck := range w.checks {
				bit := uint64(1) << uint(ck.cell)
				ok := otherLocks&bit == 0
				if ok {
					if fallback {
						ok = layout.GetCellVersion(data[w.lay.CellOff(ck.cell):]).TS == ck.ts
					} else {
						ok = h.EN[ck.cell] == ck.en
					}
				}
				if ok {
					continue
				}
				conflicting := db.Tracker.ChangedSince(w.table(), w.key, ck.ts)
				if otherLocks&bit != 0 {
					conflicting |= db.Tracker.HolderCells(w.table(), w.key)
				}
				db.ValidationConflict(p, w.table(), w.key, bit, ck.ts)
				return engine.AbortValidation, engine.IsFalseConflict(accessMaskFor(w.op), conflicting)
			}
		}
	}
	return engine.AbortNone, false
}

// dRelease frees held locks (abort path), batched per node.
func (c *Coordinator) dRelease(p *sim.Proc, sc *execScratch, ws []*dwork) {
	db := c.cn.db
	sc.bat.Begin()
	for _, w := range ws {
		if w.lockBits == 0 {
			continue
		}
		bi := sc.bat.Batch(w.primary.Region)
		sc.bat.Append(bi, rdma.Op{
			Kind:    rdma.OpMaskedCAS,
			Off:     w.off + layout.OffLock,
			Compare: w.lockBits,
			Swap:    0,
			Mask:    w.lockBits,
		})
		if w.tracked {
			db.Tracker.OnUnlock(w.table(), w.key, accessMaskFor(w.op))
			w.tracked = false
		}
		db.LockReleased(p, w.table(), w.key, w.lockBits)
		w.lockBits = 0
	}
	batches := sc.bat.Batches()
	if len(batches) == 0 {
		return
	}
	if _, err := rdma.PostMulti(p, batches); err != nil {
		panic(err)
	}
}

// dWriteLog persists the redo-log entry (no local dependencies on the
// direct path).
func (c *Coordinator) dWriteLog(p *sim.Proc, sc *execScratch, ws []*dwork, ts uint64) {
	nr := 0
	for _, w := range ws {
		if len(w.op.WriteCells) == 0 {
			continue
		}
		if nr == len(sc.recs) {
			sc.recs = append(sc.recs, logRecord{})
		}
		r := &sc.recs[nr]
		nr++
		r.Table, r.Key, r.Mask = w.table(), w.key, layout.LockMask(w.op.WriteCells)
		r.Vals = r.Vals[:0]
		sc.idx = sc.idx[:0]
		for i := range w.op.WriteCells {
			sc.idx = append(sc.idx, i)
		}
		sortByCell(sc.idx, w.op.WriteCells)
		for _, i := range sc.idx {
			r.Vals = append(r.Vals, w.vals[w.op.WriteCells[i]])
		}
	}
	if nr == 0 {
		return
	}
	entry := appendLogEntry(sc.logBuf[:0], c.gid<<32, ts, nil, sc.recs[:nr])
	sc.logBuf = entry
	off := c.log.Reserve(len(entry))
	// Cross-shard commits pay a prepare round first: the entry lands
	// on every other participating group's log mirrors before the
	// home group's decision write.
	if parts := c.writeShardsDworks(ws); parts.Beyond(c.home) {
		engine.PrepareCrossShard(p, c.cn.db, c.qps, c.logN, c.home, parts, off, entry)
	}
	c.postLog(p, sc, off, entry)
}

// writeShardsDworks returns the shard groups of every written record
// on the direct path.
func (c *Coordinator) writeShardsDworks(ws []*dwork) engine.ShardSet {
	pool := c.cn.db.Pool
	var parts engine.ShardSet
	for _, w := range ws {
		if len(w.op.WriteCells) > 0 {
			parts.Add(pool.ShardOfNode(w.primary.ID))
		}
	}
	return parts
}

// dInstall writes updated cells, bumps their epoch numbers and unlocks
// on every replica, ordered within one round-trip. why is the
// committing transaction's why id.
func (c *Coordinator) dInstall(p *sim.Proc, sc *execScratch, ws []*dwork, ts, why uint64) {
	db := c.cn.db
	sc.bat.Begin()
	for _, w := range ws {
		if w.lockBits == 0 {
			continue
		}
		for _, n := range db.Pool.ReplicaNodes(w.table(), w.key) {
			bi := sc.bat.Batch(n.Region)
			for _, cell := range w.op.WriteCells {
				en := w.hdr.EN[cell] + 1
				if en == 0 { // 16-bit epoch wrapped
					db.ENOverflow(p, w.table(), w.key, cell)
				}
				slot := sc.bytes(layout.CellVersionSize + len(w.vals[cell]))
				layout.PutCellVersion(slot, layout.CellVersion{EN: en, TS: ts})
				copy(slot[layout.CellVersionSize:], w.vals[cell])
				enb := sc.bytes(2)
				enb[0] = byte(en)
				enb[1] = byte(en >> 8)
				sc.bat.Append(bi, rdma.Op{Kind: rdma.OpWrite, Off: w.off + uint64(w.lay.CellOff(cell)), Data: slot})
				sc.bat.Append(bi, rdma.Op{Kind: rdma.OpWrite, Off: w.off + uint64(w.lay.ENOff(cell)), Data: enb})
			}
			if n == w.primary {
				sc.bat.Append(bi, rdma.Op{
					Kind:    rdma.OpMaskedCAS,
					Off:     w.off + layout.OffLock,
					Compare: w.lockBits,
					Swap:    0,
					Mask:    w.lockBits,
				})
			}
		}
	}
	if batches := sc.bat.Batches(); len(batches) > 0 {
		if _, err := rdma.PostMulti(p, batches); err != nil {
			panic(err)
		}
	}
	for _, w := range ws {
		if w.lockBits == 0 {
			continue
		}
		if w.tracked {
			db.Tracker.OnUnlock(w.table(), w.key, accessMaskFor(w.op))
			w.tracked = false
		}
		db.Tracker.OnUpdate(w.table(), w.key, ts, layout.LockMask(w.op.WriteCells))
		db.CommittedUpdate(why, w.table(), w.key, ts, layout.LockMask(w.op.WriteCells))
		db.LockReleased(p, w.table(), w.key, w.lockBits)
		w.lockBits = 0
	}
}

// dRecord feeds the committed transaction into the history checker.
func (c *Coordinator) dRecord(t *engine.Txn, ws []*dwork, ts uint64) {
	h := c.cn.db.History
	if h == nil || !h.On {
		return
	}
	ht := engine.HTxn{TS: ts, Label: t.Label}
	for _, w := range ws {
		for i, cell := range w.op.ReadCells {
			ht.Reads = append(ht.Reads, engine.HRead{
				Cell: engine.CellID{Table: w.table(), Key: w.key, Cell: cell},
				Hash: engine.HashValue(w.readVals[i]),
			})
		}
		for i, cell := range w.op.WriteCells {
			ht.Writes = append(ht.Writes, engine.HWrite{
				Cell: engine.CellID{Table: w.table(), Key: w.key, Cell: cell},
				Hash: engine.HashValue(w.writeVals[i]),
			})
		}
	}
	h.Commit(ht)
}
