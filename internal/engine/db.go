package engine

import (
	"fmt"

	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/observe"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// Table is one table's placement in the memory pool: a heap of record
// slots (mirrored offsets, replicated contents) plus the hash index
// resolving keys to slot offsets.
type Table struct {
	Schema layout.Schema
	Index  *hashindex.Index
	Heap   *memnode.Heap

	addr    map[layout.Key]uint64 // host-side key → offset, mirrors the index
	nextRow int
	pending map[layout.Key]uint64 // entries not yet bulk-loaded into the index
}

// AddrOf returns the loaded record's offset, for warming compute-node
// address caches. It reflects host-side loads only.
func (t *Table) AddrOf(key layout.Key) (uint64, bool) {
	off, ok := t.addr[key]
	return off, ok
}

// NumLoaded reports how many records have been loaded.
func (t *Table) NumLoaded() int { return t.nextRow }

// Keys iterates the loaded keys (host-side, for verification tools).
func (t *Table) Keys(fn func(layout.Key, uint64)) {
	for k, off := range t.addr {
		fn(k, off)
	}
}

// IndexRegion exposes the table's hash-index placement (base offset
// and byte size) for node resynchronization.
func (t *Table) IndexRegion() (base uint64, size int) {
	return t.Index.Base(), t.Index.SizeBytes()
}

// ClaimSlot assigns the next free heap slot to key and returns its
// offset, for runtime row inserts. Slot allocation is host-side — a
// stand-in for the per-compute-node free lists a real deployment would
// partition (see DESIGN.md); index publication stays the caller's job.
func (t *Table) ClaimSlot(key layout.Key) (uint64, error) {
	if _, dup := t.addr[key]; dup {
		return 0, fmt.Errorf("engine: key %d already in table %q", key, t.Schema.Name)
	}
	if t.nextRow >= t.Heap.Count {
		return 0, fmt.Errorf("engine: table %q full at %d records", t.Schema.Name, t.Heap.Count)
	}
	off := t.Heap.SlotOff(t.nextRow)
	t.nextRow++
	t.addr[key] = off
	return off, nil
}

// DB is the shared database substrate an engine builds on: the memory
// pool, the tables, and the cross-cutting instrumentation (timestamp
// oracle, conflict tracker, optional history).
type DB struct {
	Pool    *memnode.Pool
	Fabric  *rdma.Fabric
	Tables  map[layout.TableID]*Table
	TSO     *TSO
	Tracker *ConflictTracker
	History *History
	Cost    CostModel
	// Obs holds the run's observers: the trace recorder (spans, phases,
	// lock traffic), the metrics registry the met instruments live in,
	// the why recorder (wait-for and conflict edges for abort forensics)
	// and the flight recorder (per-transaction latency budgets). Each is
	// nil-able and host-side only: enabling one never changes virtual
	// time, events or randomness. Set it through Attach, which also
	// wires the schedulers and the fabric; protocol code reports to it
	// only through the hooks in observe.go.
	Obs observe.Set
	// met holds the engine instrument handles. It is a value struct so
	// the hooks can use it unconditionally: with metrics disabled every
	// handle is nil and every call no-ops.
	met Metrics

	// lane is the fabric lane (simulation partition) this DB's verbs
	// are counted in: 0 except on partition views.
	lane int
}

// NewDB wraps a pool.
func NewDB(pool *memnode.Pool) *DB {
	return &DB{
		Pool:    pool,
		Fabric:  pool.Fabric(),
		Tables:  map[layout.TableID]*Table{},
		TSO:     &TSO{},
		Tracker: NewConflictTracker(),
		Cost:    DefaultCostModel(),
	}
}

// VerbStats returns the fabric verb counters attributable to this DB's
// partition: the whole fabric on the root DB of a single-partition
// run, the partition's lane on a partition view. Attempt accounting
// diffs it so per-attempt verb counts stay partition-local — and
// therefore deterministic — when partitions execute in parallel.
func (db *DB) VerbStats() rdma.Stats {
	return db.Fabric.LaneStats(db.lane)
}

// PartitionView returns a shard-group-local view of the database for
// partition part, whose coordinators run on env: shared immutable
// placement (pool, fabric, tables, cost model) plus partition-private
// mutable state — a hybrid-logical-clock timestamp oracle floored
// above every load-time draw, a fresh conflict tracker, and a history
// fork (fold it back with History.Absorb after the run). Observability
// probes are sharded: the view records into the partition's own shard
// of each root recorder/registry (written lock-free by the partition's
// worker, merged deterministically at snapshot time), so observed runs
// execute at full worker count with byte-identical output.
func (db *DB) PartitionView(env *sim.Env, part int) *DB {
	parts := 1
	if w := env.World(); w != nil {
		parts = w.Parts()
	}
	v := &DB{
		Pool:    db.Pool,
		Fabric:  db.Fabric,
		Tables:  db.Tables,
		TSO:     NewPartitionTSO(env, part, db.TSO.Last()),
		Tracker: NewConflictTracker(),
		History: db.History.Fork(),
		Cost:    db.Cost,
		lane:    part,
	}
	// The engine instrument handles are rebuilt on the partition's shard
	// registry so counts accrue partition-locally (Pool is shared, so
	// the per-shard-group labels come out the same).
	v.observe(db.Obs.Shard(part, parts))
	return v
}

// CreateTable allocates the heap and index for a schema. recSize is
// the engine-specific record footprint (each engine lays records out
// differently); capacity bounds the number of records.
func (db *DB) CreateTable(s layout.Schema, recSize, capacity int) *Table {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if _, dup := db.Tables[s.ID]; dup {
		panic(fmt.Sprintf("engine: duplicate table id %d", s.ID))
	}
	// Range-style placement policies size their shard boundaries from
	// table capacities; report them before any record is placed.
	if cs, ok := db.Pool.Policy().(placement.CapacitySetter); ok {
		cs.SetCapacity(s.ID, capacity)
	}
	t := &Table{
		Schema:  s,
		Index:   hashindex.New(db.Pool, s.ID, capacity),
		Heap:    db.Pool.AllocHeap(recSize, capacity),
		addr:    make(map[layout.Key]uint64, capacity),
		pending: map[layout.Key]uint64{},
	}
	db.Tables[s.ID] = t
	return t
}

// Table returns the table with the given id.
func (db *DB) Table(id layout.TableID) *Table {
	t := db.Tables[id]
	if t == nil {
		panic(fmt.Sprintf("engine: unknown table %d", id))
	}
	return t
}

// LoadRecord assigns the next heap slot to key, lets encode fill the
// record bytes, and copies them host-side to every replica node — the
// benchmark pre-load step that precedes measurement. FinishLoad must
// be called before transactions run.
func (db *DB) LoadRecord(t *Table, key layout.Key, encode func(buf []byte)) {
	if _, dup := t.addr[key]; dup {
		panic(fmt.Sprintf("engine: duplicate load of key %d in table %q", key, t.Schema.Name))
	}
	if t.nextRow >= t.Heap.Count {
		panic(fmt.Sprintf("engine: table %q full at %d records", t.Schema.Name, t.Heap.Count))
	}
	off := t.Heap.SlotOff(t.nextRow)
	t.nextRow++
	buf := make([]byte, t.Heap.RecSize)
	encode(buf)
	for _, n := range db.Pool.ReplicaNodes(t.Schema.ID, key) {
		copy(n.Region.Bytes()[off:], buf)
	}
	t.addr[key] = off
	t.pending[key] = off
}

// FinishLoad publishes pending records in the hash index.
func (db *DB) FinishLoad() error {
	for _, t := range db.Tables {
		if len(t.pending) == 0 {
			continue
		}
		if err := t.Index.BulkLoad(db.Pool, t.pending); err != nil {
			return err
		}
		t.pending = map[layout.Key]uint64{}
	}
	return nil
}

// WarmCache fills a compute node's address cache with every loaded
// record, the steady-state assumption all three systems are measured
// under (Table 2 counts no index round-trips).
func (db *DB) WarmCache(c *hashindex.AddrCache) {
	for id, t := range db.Tables {
		for k, off := range t.addr {
			c.Put(id, k, off)
		}
	}
}

// ResolveAddr returns the record's offset, consulting the compute
// node's cache first and falling back to one-sided index lookups on
// the record's primary node.
func (db *DB) ResolveAddr(p *sim.Proc, cache *hashindex.AddrCache, qp *rdma.QP,
	table layout.TableID, key layout.Key) (uint64, error) {
	if off, ok := cache.Get(table, key); ok {
		return off, nil
	}
	off, found, err := db.Table(table).Index.Lookup(p, qp, key)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("engine: key %d not in table %d", key, table)
	}
	cache.Put(table, key, off)
	return off, nil
}

// ReplicaQPs connects queue pairs to every replica node of (table,
// key), primary first.
func (db *DB) ReplicaQPs(table layout.TableID, key layout.Key) []*rdma.QP {
	nodes := db.Pool.ReplicaNodes(table, key)
	qps := make([]*rdma.QP, len(nodes))
	for i, n := range nodes {
		qps[i] = db.Fabric.Connect(n.Region)
	}
	return qps
}
