package core

import (
	"fmt"

	"crest/internal/layout"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// InsertRow inserts a whole row at runtime (§4.4: "CREST inserts ...
// entire rows by acquiring all cell locks via an RDMA CAS"): it claims
// a fresh heap slot, writes the record with every cell locked, then
// publishes the key in the hash index of every memory node and
// releases the locks.
func (c *Coordinator) InsertRow(p *sim.Proc, table layout.TableID, key layout.Key, cells [][]byte) error {
	db := c.cn.db
	lay := c.cn.sys.layouts[table]
	if lay == nil {
		return fmt.Errorf("core: unknown table %d", table)
	}
	if len(cells) != lay.NumCells() {
		return fmt.Errorf("core: %d cells for table with %d", len(cells), lay.NumCells())
	}
	tab := db.Table(table)
	if _, exists := tab.AddrOf(key); exists {
		return fmt.Errorf("core: key %d already present in table %d", key, table)
	}
	off, err := tab.ClaimSlot(key)
	if err != nil {
		return err
	}

	// Build the record image: cells at epoch 1 so readers admitted
	// mid-insert fail validation. The primary's header carries every
	// cell locked until the index entry is published; backups are
	// never locked.
	buf := make([]byte, lay.Size())
	mask := layout.AllCellsMask(lay.NumCells())
	hdr := layout.Header{Key: key, TableID: table}
	for i, v := range cells {
		if len(v) != lay.CellSize(i) {
			return fmt.Errorf("core: cell %d size %d, schema wants %d", i, len(v), lay.CellSize(i))
		}
		hdr.EN[i] = 1
		layout.PutCellVersion(buf[lay.CellOff(i):], layout.CellVersion{EN: 1, TS: db.TSO.Next()})
		copy(buf[lay.CellValueOff(i):], v)
	}

	// Write the record to every replica in one round-trip.
	primaryNode := db.Pool.PrimaryOf(table, key)
	var batches []rdma.Batch
	for _, n := range db.Pool.ReplicaNodes(table, key) {
		hdr.Lock = 0
		if n == primaryNode {
			hdr.Lock = mask
		}
		layout.EncodeHeader(buf, hdr)
		batches = append(batches, rdma.Batch{
			QP:  c.qps.Get(n.Region),
			Ops: []rdma.Op{{Kind: rdma.OpWrite, Off: off, Data: append([]byte(nil), buf...)}},
		})
	}
	if _, err := rdma.PostMulti(p, batches); err != nil {
		return err
	}
	// Publish in the mirrored index, then unlock.
	if err := tab.Index.InsertAll(p, db.Fabric, db.Pool, key, off); err != nil {
		return err
	}
	c.cn.cache.Put(table, key, off)
	primary := db.Pool.PrimaryOf(table, key)
	if _, _, err := c.qps.Get(primary.Region).MaskedCAS(p, off+layout.OffLock, mask, 0, mask); err != nil {
		return err
	}
	return nil
}

// DeleteRow logically deletes a row (§4.4): it acquires every cell
// lock, sets the spare delete bit, and tombstones the index entry on
// every node. Readers that fetch the record afterwards observe the
// delete bit and abort.
func (c *Coordinator) DeleteRow(p *sim.Proc, table layout.TableID, key layout.Key) error {
	db := c.cn.db
	lay := c.cn.sys.layouts[table]
	if lay == nil {
		return fmt.Errorf("core: unknown table %d", table)
	}
	tab := db.Table(table)
	off, exists := tab.AddrOf(key)
	if !exists {
		return fmt.Errorf("core: key %d not in table %d", key, table)
	}
	mask := layout.AllCellsMask(lay.NumCells())
	primary := db.Pool.PrimaryOf(table, key)
	qp := c.qps.Get(primary.Region)

	// Acquire every cell lock (retry briefly like any other writer).
	opts := c.cn.sys.opts
	for tries := 0; ; tries++ {
		_, ok, err := qp.MaskedCAS(p, off+layout.OffLock, 0, mask, mask)
		if err != nil {
			return err
		}
		if ok {
			break
		}
		if tries >= opts.LockRetries {
			return fmt.Errorf("core: delete of contended row %d/%d timed out", table, key)
		}
		p.Sleep(opts.LockBackoff)
		db.Backoff(p, opts.LockBackoff)
	}
	// Mark deleted on every replica: the delete bit goes up, the cell
	// locks go down, in one masked operation per node.
	var batches []rdma.Batch
	for _, n := range db.Pool.ReplicaNodes(table, key) {
		batches = append(batches, rdma.Batch{
			QP: c.qps.Get(n.Region),
			Ops: []rdma.Op{{
				Kind:    rdma.OpMaskedCAS,
				Off:     off + layout.OffLock,
				Compare: lockStateFor(n == primary, mask),
				Swap:    layout.DeleteMask,
				Mask:    mask | layout.DeleteMask,
			}},
		})
	}
	if _, err := rdma.PostMulti(p, batches); err != nil {
		return err
	}
	// Tombstone the mirrored index on the owning shard group (only its
	// nodes carry the entry).
	for _, n := range db.Pool.GroupNodes(db.Pool.ShardOf(table, key)) {
		if err := tab.Index.Delete(p, c.qps.Get(n.Region), key); err != nil {
			return err
		}
	}
	// Evict any local object so the cache does not serve the ghost.
	delete(c.cn.objs, recKey{table, key})
	return nil
}

// lockStateFor is the expected lock word during delete: the primary
// holds our all-cells lock, backups were never locked.
func lockStateFor(isPrimary bool, mask uint64) uint64 {
	if isPrimary {
		return mask
	}
	return 0
}
