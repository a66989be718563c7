// Package shard is the partition plumbing the observers share. A root
// recorder of type T hands each simulation partition its own child,
// written lock-free by the partition's worker; the root then merges the
// family deterministically at snapshot time. Family owns the child set,
// the misuse checks and the strided id sequence that keeps ids unique
// across the family; Ring is the bounded buffer each member keeps its
// records in; Merge owns the canonical cross-partition order.
package shard

import (
	"cmp"
	"fmt"
	"slices"
)

// Family is the partition state a recorder holds: the children of a
// root, or the identity of a child. The zero Family is an unsharded
// root.
type Family[T any] struct {
	part     int // this child's partition
	parts    int // the family size on a child; 0 on a root
	children []*T
}

// Shard returns self's child for partition part of parts. The whole
// family is created on the first call, newChild building each child
// around the Family value it must store, so every caller that shards
// with the same partition count gets the same children. parts <= 1
// returns self unchanged, so single-partition runs keep the unsharded
// recorder. Re-sharding a child, or a part or partition count that does
// not match the family, is a programming error and panics.
func (f *Family[T]) Shard(self *T, part, parts int, newChild func(Family[T]) *T) *T {
	if parts <= 1 {
		return self
	}
	if f.parts > 0 {
		panic("shard: Shard of a partition child")
	}
	if f.children == nil {
		f.children = make([]*T, parts)
		for i := range f.children {
			f.children[i] = newChild(Family[T]{part: i, parts: parts})
		}
	}
	if len(f.children) != parts || part < 0 || part >= parts {
		panic(fmt.Sprintf("shard: Shard(%d, %d) of a family sharded %d ways",
			part, parts, len(f.children)))
	}
	return f.children[part]
}

// Children returns a root's partition children in partition order (nil
// when the root was never sharded, or on a child).
func (f *Family[T]) Children() []*T { return f.children }

// ID maps the local'th id a member issues (counting from 1) to its
// family-wide id: the identity on a root, the strided sequence part+1,
// part+1+parts, … on a child, so ids never collide across the family.
func (f *Family[T]) ID(local uint64) uint64 {
	if f.parts <= 1 {
		return local
	}
	return uint64(f.part) + uint64(f.parts)*(local-1) + 1
}

// Sum adds count over self and every child of its family.
func Sum[T any](self *T, f *Family[T], count func(*T) uint64) uint64 {
	n := count(self)
	for _, c := range f.children {
		n += count(c)
	}
	return n
}

// Ring is a bounded record buffer: once it holds its capacity, every
// push evicts the oldest record. Records live in fixed-size blocks,
// allocated as the ring fills and never copied or re-cleared, so growth
// costs one allocation per ringBlock records and never over-allocates
// past the capacity.
type Ring[E any] struct {
	blocks  [][]E
	n       int // buffered records
	cap     int
	head    int // index of the oldest record once full
	dropped uint64
}

// ringBlock is the number of records per block; a power of two, so the
// block index and offset are a shift and a mask.
const ringBlock = 4096

// NewRing returns an empty ring holding at most capacity records, with
// room reserved for the first reserve of them.
func NewRing[E any](capacity, reserve int) Ring[E] {
	r := Ring[E]{cap: capacity}
	for off := 0; off < min(reserve, capacity); off += ringBlock {
		r.grow()
	}
	return r
}

// grow allocates the next block, cut short at the capacity.
func (r *Ring[E]) grow() {
	off := len(r.blocks) * ringBlock
	r.blocks = append(r.blocks, make([]E, min(ringBlock, r.cap-off)))
}

// Push appends e, evicting the oldest record when the ring is full.
func (r *Ring[E]) Push(e E) {
	if r.n < r.cap {
		if r.n == len(r.blocks)*ringBlock {
			r.grow()
		}
		r.blocks[r.n/ringBlock][r.n%ringBlock] = e
		r.n++
		return
	}
	r.blocks[r.head/ringBlock][r.head%ringBlock] = e
	if r.head++; r.head == r.cap {
		r.head = 0
	}
	r.dropped++
}

// Len reports the number of buffered records.
func (r *Ring[E]) Len() int { return r.n }

// Cap reports the ring's capacity.
func (r *Ring[E]) Cap() int { return r.cap }

// Dropped reports how many records were evicted.
func (r *Ring[E]) Dropped() uint64 { return r.dropped }

// Each calls f on the buffered records in contiguous runs, oldest
// first: every record of one run precedes every record of the next.
// The runs alias the ring and are valid until the next Push.
func (r *Ring[E]) Each(f func(run []E)) {
	r.each(r.head, r.n, f)
	r.each(0, r.head, f)
}

// each calls f on the records at indexes [from, to), block by block.
func (r *Ring[E]) each(from, to int, f func([]E)) {
	for from < to {
		b := r.blocks[from/ringBlock]
		off := from % ringBlock
		end := min(len(b), off+to-from)
		f(b[off:end])
		from += end - off
	}
}

// AppendTo appends the buffered records, oldest first, to dst.
func (r *Ring[E]) AppendTo(dst []E) []E {
	r.Each(func(run []E) { dst = append(dst, run...) })
	return dst
}

// Merge collects the records of a sharded family and orders them by
// (virtual time, partition, local order) — the key the partitioned
// scheduler merges cross-partition mailboxes by — so the merged stream
// is a pure function of the simulation, never of the worker count. The
// root's own records take partition -1.
type Merge[E any] struct {
	key   func(*E) (at int64, ord uint64)
	items []E
	keys  []mergeKey
}

// mergeKey is the sort key of items[i], recorded by partition part.
type mergeKey struct {
	at   int64
	ord  uint64
	part int32
	i    int32
}

// NewMerge returns a merge with room for n records. key reports a
// record's virtual time and its order within its partition; the pair
// must be unique per partition.
func NewMerge[E any](n int, key func(*E) (at int64, ord uint64)) *Merge[E] {
	return &Merge[E]{key: key, items: make([]E, 0, n), keys: make([]mergeKey, 0, n)}
}

// Add appends records of partition part.
func (m *Merge[E]) Add(part int, es ...E) {
	for i := range es {
		at, ord := m.key(&es[i])
		m.keys = append(m.keys, mergeKey{at: at, ord: ord, part: int32(part), i: int32(len(m.items))})
		m.items = append(m.items, es[i])
	}
}

// AddRing appends the records of partition part's ring, oldest first.
func (m *Merge[E]) AddRing(part int, r *Ring[E]) {
	r.Each(func(run []E) { m.Add(part, run...) })
}

// Sorted returns the records in merge order. Only the keys move while
// sorting; the records are copied once more, into the result.
func (m *Merge[E]) Sorted() []E {
	slices.SortFunc(m.keys, func(a, b mergeKey) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.part, b.part); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	out := make([]E, len(m.keys))
	for j, k := range m.keys {
		out[j] = m.items[k.i]
	}
	return out
}
