// Package ford implements the FORD baseline (Zhang et al., "Localized
// Validation Accelerates Distributed Transactions on Disaggregated
// Persistent Memory", ACM TOS 2023) as the paper evaluates it:
// record-level optimistic concurrency control over one-sided RDMA.
//
// Per transaction (Table 2 of the CREST paper):
//
//	execution:  READ for read-only records; CAS(lock)+READ, batched in
//	            one round-trip, for read-write records (no-wait: a
//	            failed CAS aborts the attempt);
//	validation: one READ of lock+version for each read-only record,
//	            batched per memory node;
//	commit:     one log WRITE, then WRITE(version+data)+CAS(unlock)
//	            batched per replica — strict locking holds every lock
//	            until here.
package ford

import (
	"encoding/binary"
	"fmt"

	"crest/internal/engine"
	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
)

// logSegmentSize is each coordinator's undo-log ring in the memory
// pool.
const logSegmentSize = 64 << 10

// System is a FORD instance over a shared DB.
type System struct {
	db      *engine.DB
	layouts map[layout.TableID]*layout.FORDRecord
	nextCN  int
}

// New creates a FORD system on db.
func New(db *engine.DB) *System {
	return &System{db: db, layouts: map[layout.TableID]*layout.FORDRecord{}}
}

// Name implements the conventional engine label.
func (s *System) Name() string { return "FORD" }

// DB exposes the underlying database substrate.
func (s *System) DB() *engine.DB { return s.db }

// CreateTable registers a table with FORD's record layout.
func (s *System) CreateTable(sc layout.Schema, capacity int) {
	sc = sc.Normalize()
	lay := layout.NewFORDRecord(sc)
	s.layouts[sc.ID] = lay
	s.db.CreateTable(sc, lay.PaddedSize(), capacity)
}

// Load writes a record's initial cell values host-side (pre-load).
func (s *System) Load(table layout.TableID, key layout.Key, cells [][]byte) {
	lay := s.layouts[table]
	t := s.db.Table(table)
	s.db.LoadRecord(t, key, func(buf []byte) {
		binary.LittleEndian.PutUint64(buf[layout.BOffKey:], uint64(key))
		binary.LittleEndian.PutUint32(buf[layout.BOffTableID:], uint32(table))
		for i, v := range cells {
			if len(v) != lay.Schema.CellSizes[i] {
				panic(fmt.Sprintf("ford: cell %d size %d, schema wants %d", i, len(v), lay.Schema.CellSizes[i]))
			}
			copy(buf[lay.CellValueOff(i):], v)
		}
	})
	if h := s.db.History; h != nil && h.On {
		for i, v := range cells {
			h.SetInitial(engine.CellID{Table: table, Key: key, Cell: i}, v)
		}
	}
}

// FinishLoad publishes the hash indexes.
func (s *System) FinishLoad() error { return s.db.FinishLoad() }

// ComputeNode groups the coordinators of one compute node; in FORD
// they share only the address cache. db is the partition view the
// node's coordinators run against (the root DB on sequential runs).
type ComputeNode struct {
	sys   *System
	db    *engine.DB
	id    int
	cache *hashindex.AddrCache
}

// NewComputeNode creates compute node state.
func (s *System) NewComputeNode(id int) *ComputeNode {
	cn := &ComputeNode{sys: s, db: s.db, id: id, cache: hashindex.NewAddrCache()}
	s.nextCN++
	return cn
}

// NewPartitionComputeNode creates compute node state bound to a
// partition view of the database.
func (s *System) NewPartitionComputeNode(id int, db *engine.DB) *ComputeNode {
	cn := s.NewComputeNode(id)
	cn.db = db
	return cn
}

// WarmCache preloads the address cache with every record.
func (cn *ComputeNode) WarmCache() { cn.db.WarmCache(cn.cache) }

// Coordinator executes FORD transactions.
type Coordinator struct {
	cn   *ComputeNode
	gid  uint64 // global owner id, nonzero (lock word value)
	qps  *engine.QPCache
	log  *memnode.LogSegment
	logN []*memnode.Node
	home int // shard group holding the log (commit decision)
	// scFree recycles attempt scratch (see execScratch).
	scFree []*execScratch
}

// NewCoordinator creates coordinator number id on the compute node.
// Ids must be globally unique across compute nodes.
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
	return c
}

// writeShards returns the shard groups of every written record in ws.
func (c *Coordinator) writeShards(ws []*work) engine.ShardSet {
	pool := c.cn.db.Pool
	var parts engine.ShardSet
	for _, w := range ws {
		if w.op.IsWrite() {
			parts.Add(pool.ShardOfNode(w.primary.ID))
		}
	}
	return parts
}

// work is the per-record execution state of one attempt.
type work struct {
	op        *engine.Op
	key       layout.Key
	rk        recKey
	off       uint64
	lay       *layout.FORDRecord
	primary   *memnode.Node
	data      []byte // working copy of the whole record
	readVer   uint64
	locked    bool
	cells     uint64 // accessed-cell mask, for conflict classification
	readVals  [][]byte
	writeVals [][]byte
}

func (w *work) table() layout.TableID { return w.lay.Schema.ID }

// Execute runs one attempt of t. It never retries; the caller owns
// backoff and retry.
func (c *Coordinator) Execute(p *sim.Proc, t *engine.Txn) engine.Attempt {
	db := c.cn.db
	at := engine.BeginAttempt(db, p, c.gid, c.home, t)
	sc := c.getScratch()
	defer c.putScratch(sc)

	// Execution phase: per block, batch CAS+READ / READ per memory
	// node, then run the hooks locally.
	for bi := range t.Blocks {
		blk := &t.Blocks[bi]
		newWork, err := c.prepareBlock(p, t, blk, sc)
		if err != nil {
			panic(err) // address resolution errors are programming bugs
		}
		sc.ws = append(sc.ws, newWork...)
		if db.Pool.Shards() > 1 && c.writeShards(sc.ws).Beyond(c.home) {
			at.MarkCrossShard()
		}
		at.Phase(trace.PhaseLock)
		abort, falseC := c.fetchBlock(p, sc, newWork)
		at.Phase(trace.PhaseExec)
		if abort != engine.AbortNone {
			// Release before Fail: FORD has always charged abort-time
			// lock release to the phase that failed.
			c.releaseLocks(p, sc, sc.ws)
			at.Fail(abort, falseC)
			return at.Done()
		}
		// Run every op of the block in program order.
		for oi := range blk.Ops {
			op := &blk.Ops[oi]
			w := findWork(sc.ws, recKey{op.Table, op.ResolveKey(t.State)})
			c.applyOp(p, t, sc, op, w)
		}
	}

	// Validation phase: re-read lock+version of every read-only
	// record.
	at.Phase(trace.PhaseValidate)
	if abort, falseC := c.validate(p, sc, sc.ws); abort != engine.AbortNone {
		c.releaseLocks(p, sc, sc.ws)
		at.Fail(abort, falseC)
		return at.Done()
	}

	// Commit phase: undo log, then install updates and release locks.
	at.Phase(trace.PhaseLog)
	ts := db.TSO.Next()
	c.writeLog(p, sc, sc.ws, ts)
	at.Phase(trace.PhaseApply)
	c.install(p, sc, sc.ws, ts, at.WhyID())
	c.record(t, sc.ws, ts)
	return at.Done()
}

type recKey struct {
	table layout.TableID
	key   layout.Key
}

// prepareBlock resolves keys and builds work entries for records not
// yet fetched, sorted by (table, key) for deterministic batching.
func (c *Coordinator) prepareBlock(p *sim.Proc, t *engine.Txn, blk *engine.Block, sc *execScratch) ([]*work, error) {
	db := c.cn.db
	sc.block = sc.block[:0]
	for oi := range blk.Ops {
		op := &blk.Ops[oi]
		key := op.ResolveKey(t.State)
		rk := recKey{op.Table, key}
		prev := findWork(sc.ws, rk)
		if prev == nil {
			prev = findWork(sc.block, rk)
		}
		if prev != nil {
			if op.IsWrite() && !prev.locked {
				panic(fmt.Sprintf("ford: record %v written after read-only fetch; declare the write on first access", rk))
			}
			prev.cells |= opCellMask(op)
			continue
		}
		lay := c.cn.sys.layouts[op.Table]
		primary := db.Pool.PrimaryOf(op.Table, key)
		off, err := db.ResolveAddr(p, c.cn.cache, c.qps.Get(primary.Region), op.Table, key)
		if err != nil {
			return nil, err
		}
		w := sc.newWork()
		w.op, w.key, w.rk, w.off, w.lay, w.primary, w.cells = op, key, rk, off, lay, primary, opCellMask(op)
		sc.block = append(sc.block, w)
	}
	sortWorks(sc.block)
	return sc.block, nil
}

// sortWorks orders records by (TableID, Key). The order is total
// (duplicate records merge into their first work entry above), so the
// insertion sort matches the previous sort.Slice byte for byte.
func sortWorks(ws []*work) {
	for i := 1; i < len(ws); i++ {
		w := ws[i]
		j := i - 1
		for j >= 0 && workLess(w, ws[j]) {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = w
	}
}

func workLess(a, b *work) bool {
	if a.table() != b.table() {
		return a.table() < b.table()
	}
	return a.key < b.key
}

func opCellMask(op *engine.Op) uint64 {
	return layout.LockMask(op.ReadCells) | layout.LockMask(op.WriteCells)
}

// fetchBlock issues the block's CAS+READ / READ batches, one
// round-trip per memory node, and parses the results.
func (c *Coordinator) fetchBlock(p *sim.Proc, sc *execScratch, ws []*work) (engine.AbortReason, bool) {
	if len(ws) == 0 {
		return engine.AbortNone, false
	}
	db := c.cn.db
	sc.bat.Begin()
	for i := range sc.batchW {
		sc.batchW[i] = sc.batchW[i][:0]
	}
	for _, w := range ws {
		bi := sc.bat.Batch(w.primary.Region)
		for bi >= len(sc.batchW) {
			sc.batchW = append(sc.batchW, nil)
		}
		if w.op.IsWrite() {
			sc.bat.Append(bi, rdma.Op{
				Kind:    rdma.OpCAS,
				Off:     w.off + layout.BOffLock,
				Compare: 0,
				Swap:    c.gid,
			})
		}
		sc.bat.Append(bi, rdma.Op{
			Kind: rdma.OpRead,
			Off:  w.off,
			Len:  w.lay.Size(),
		})
		sc.batchW[bi] = append(sc.batchW[bi], w)
	}
	batches := sc.bat.Batches()
	results, err := rdma.PostMulti(p, batches)
	if err != nil {
		panic(err)
	}
	abort := engine.AbortNone
	falseConflict := false
	for bi := range batches {
		ri := 0
		for _, w := range sc.batchW[bi] {
			if w.op.IsWrite() {
				if results[bi][ri].OK {
					w.locked = true
					db.Tracker.OnLock(w.table(), w.key, w.cells)
					db.LockAcquired(p, w.table(), w.key, w.cells)
				} else {
					if abort == engine.AbortNone {
						abort = engine.AbortLockFail
						holder := db.Tracker.HolderCells(w.table(), w.key)
						falseConflict = engine.IsFalseConflict(w.cells, holder)
					}
					db.LockConflict(p, w.table(), w.key, w.cells)
				}
				ri++
			}
			// The fetched block is retained (and mutated by op hooks)
			// across later round-trips, while Result.Data is QP scratch
			// valid only until the next post: take a private copy.
			w.data = append(w.data[:0], results[bi][ri].Data...)
			w.readVer = layout.ReadWord(w.data, layout.BOffVersion) & layout.MaxTS48
			ri++
		}
	}
	return abort, falseConflict
}

// applyOp runs the op's hook against the working copy. Read copies
// live in the attempt arena: hooks may retain them only for the
// attempt (record consumes them before the scratch is recycled).
func (c *Coordinator) applyOp(p *sim.Proc, t *engine.Txn, sc *execScratch, op *engine.Op, w *work) {
	db := c.cn.db
	read := w.readVals[:0]
	for _, cell := range op.ReadCells {
		src := w.data[w.lay.CellValueOff(cell):][:w.lay.Schema.CellSizes[cell]]
		b := sc.bytes(len(src))
		copy(b, src)
		read = append(read, b)
	}
	p.Sleep(db.Cost.OpCost(len(op.ReadCells) + len(op.WriteCells)))
	written := op.Hook(t.State, read)
	if len(written) != len(op.WriteCells) {
		panic(fmt.Sprintf("ford: hook returned %d values for %d write cells", len(written), len(op.WriteCells)))
	}
	for i, cell := range op.WriteCells {
		if len(written[i]) != w.lay.Schema.CellSizes[cell] {
			panic(fmt.Sprintf("ford: hook wrote %d bytes to cell %d of size %d", len(written[i]), cell, w.lay.Schema.CellSizes[cell]))
		}
		copy(w.data[w.lay.CellValueOff(cell):], written[i])
	}
	w.readVals = read
	w.writeVals = written
}

// validate re-reads lock+version of every read-only record, batched
// per memory node in one round-trip.
func (c *Coordinator) validate(p *sim.Proc, sc *execScratch, ws []*work) (engine.AbortReason, bool) {
	db := c.cn.db
	sc.bat.Begin()
	for i := range sc.batchW {
		sc.batchW[i] = sc.batchW[i][:0]
	}
	for _, w := range ws {
		if w.locked {
			continue // read-write records are protected by their lock
		}
		bi := sc.bat.Batch(w.primary.Region)
		for bi >= len(sc.batchW) {
			sc.batchW = append(sc.batchW, nil)
		}
		sc.bat.Append(bi, rdma.Op{
			Kind: rdma.OpRead,
			Off:  w.off + layout.BOffLock,
			Len:  16, // lock word + version word
		})
		sc.batchW[bi] = append(sc.batchW[bi], w)
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
		for ri, w := range sc.batchW[bi] {
			lock := binary.LittleEndian.Uint64(results[bi][ri].Data)
			ver := binary.LittleEndian.Uint64(results[bi][ri].Data[8:]) & layout.MaxTS48
			if lock == 0 && ver == w.readVer {
				continue
			}
			var conflicting uint64
			if lock != 0 {
				conflicting = db.Tracker.HolderCells(w.table(), w.key)
			}
			if ver != w.readVer {
				conflicting |= db.Tracker.ChangedSince(w.table(), w.key, w.readVer)
			}
			db.ValidationConflict(p, w.table(), w.key, w.cells, w.readVer)
			return engine.AbortValidation, engine.IsFalseConflict(w.cells, conflicting)
		}
	}
	return engine.AbortNone, false
}

// releaseLocks clears every lock this attempt holds, batched per node
// in one round-trip.
func (c *Coordinator) releaseLocks(p *sim.Proc, sc *execScratch, ws []*work) {
	db := c.cn.db
	sc.bat.Begin()
	for _, w := range ws {
		if !w.locked {
			continue
		}
		bi := sc.bat.Batch(w.primary.Region)
		sc.bat.Append(bi, rdma.Op{
			Kind:    rdma.OpCAS,
			Off:     w.off + layout.BOffLock,
			Compare: c.gid,
			Swap:    0,
		})
		db.Tracker.OnUnlock(w.table(), w.key, w.cells)
		db.LockReleased(p, w.table(), w.key, w.cells)
		w.locked = false
	}
	batches := sc.bat.Batches()
	if len(batches) == 0 {
		return
	}
	if _, err := rdma.PostMulti(p, batches); err != nil {
		panic(err)
	}
}

// writeLog persists the undo images of every written record to the
// coordinator's log segment replicas in one round-trip.
func (c *Coordinator) writeLog(p *sim.Proc, sc *execScratch, ws []*work, ts uint64) {
	entry := c.encodeLog(sc, ws, ts)
	if entry == nil {
		return
	}
	sc.logBuf = entry
	off := c.log.Reserve(len(entry))
	// Cross-shard commits pay a prepare round first: the entry lands
	// on every other participating group's log mirrors before the
	// home group's decision write below.
	if parts := c.writeShards(ws); parts.Beyond(c.home) {
		engine.PrepareCrossShard(p, c.cn.db, c.qps, c.logN, c.home, parts, off, entry)
	}
	// Distinct batches per replica even when log nodes share a region:
	// merging them would change the fabric's batch count.
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

// encodeLog builds the undo-log entry into the scratch log buffer: ts,
// then per written record its table, key and prior image. Returns nil
// if the txn wrote nothing.
func (c *Coordinator) encodeLog(sc *execScratch, ws []*work, ts uint64) []byte {
	n := 0
	for _, w := range ws {
		if w.locked {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	buf := sc.logBuf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for _, w := range ws {
		if !w.locked {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.table()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.key))
		buf = binary.LittleEndian.AppendUint64(buf, w.readVer)
		buf = append(buf, w.data[w.lay.DataOff():w.lay.Size()]...)
	}
	return buf
}

// install writes version+data and releases the lock on every replica
// of every written record — one WRITE plus one CAS per record, all in
// one round-trip (delivery order makes the data visible before the
// unlock). why is the committing transaction's why id.
func (c *Coordinator) install(p *sim.Proc, sc *execScratch, ws []*work, ts, why uint64) {
	db := c.cn.db
	sc.bat.Begin()
	for _, w := range ws {
		if !w.locked {
			continue
		}
		layout.PutWord(w.data, layout.BOffVersion, ts)
		src := w.data[layout.BOffVersion:w.lay.Size()]
		payload := sc.bytes(len(src))
		copy(payload, src)
		for _, n := range db.Pool.ReplicaNodes(w.table(), w.key) {
			bi := sc.bat.Batch(n.Region)
			sc.bat.Append(bi, rdma.Op{
				Kind: rdma.OpWrite,
				Off:  w.off + layout.BOffVersion,
				Data: payload,
			})
			if n == w.primary {
				sc.bat.Append(bi, rdma.Op{
					Kind:    rdma.OpCAS,
					Off:     w.off + layout.BOffLock,
					Compare: c.gid,
					Swap:    0,
				})
			}
		}
	}
	batches := sc.bat.Batches()
	if len(batches) == 0 {
		return
	}
	if _, err := rdma.PostMulti(p, batches); err != nil {
		panic(err)
	}
	for _, w := range ws {
		if !w.locked {
			continue
		}
		db.Tracker.OnUnlock(w.table(), w.key, w.cells)
		db.Tracker.OnUpdate(w.table(), w.key, ts, layout.LockMask(w.op.WriteCells))
		db.CommittedUpdate(why, w.table(), w.key, ts, layout.LockMask(w.op.WriteCells))
		db.LockReleased(p, w.table(), w.key, w.cells)
		w.locked = false
	}
}

// record feeds the committed transaction into the history checker,
// using the values the hooks actually observed and produced.
func (c *Coordinator) record(t *engine.Txn, ws []*work, ts uint64) {
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
