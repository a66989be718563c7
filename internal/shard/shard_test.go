package shard

import (
	"reflect"
	"testing"
)

type member struct {
	fam  Family[member]
	name string
}

func (m *member) shard(part, parts int) *member {
	return m.fam.Shard(m, part, parts, func(f Family[member]) *member { return &member{fam: f} })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// One partition returns the root itself; several create the family
// once, stride ids per child and reject misuse.
func TestFamily(t *testing.T) {
	root := &member{name: "root"}
	if root.shard(0, 1) != root || root.fam.Children() != nil {
		t.Fatal("parts <= 1 must return the unsharded receiver")
	}
	c1 := root.shard(1, 3)
	if c1 != root.shard(1, 3) || len(root.fam.Children()) != 3 {
		t.Fatal("the family must be created once")
	}
	if got := []uint64{root.fam.ID(1), root.fam.ID(2), c1.fam.ID(1), c1.fam.ID(2)}; !reflect.DeepEqual(got, []uint64{1, 2, 2, 5}) {
		t.Fatalf("ids = %v", got)
	}
	mustPanic(t, "Shard of a child", func() { c1.shard(0, 3) })
	mustPanic(t, "changed partition count", func() { root.shard(0, 2) })
	mustPanic(t, "part out of range", func() { root.shard(3, 3) })
}

// A full ring evicts its oldest records and still reads oldest first.
func TestRing(t *testing.T) {
	r := NewRing[int](3, 0)
	for i := 1; i <= 5; i++ {
		r.Push(i)
	}
	if got := r.AppendTo(nil); !reflect.DeepEqual(got, []int{3, 4, 5}) || r.Dropped() != 2 || r.Len() != 3 {
		t.Fatalf("ring = %v dropped %d", got, r.Dropped())
	}
}

// Merge orders by time, then partition (root first), then local order.
func TestMergeOrder(t *testing.T) {
	type rec struct{ at, ord int }
	m := NewMerge(0, func(r *rec) (int64, uint64) { return int64(r.at), uint64(r.ord) })
	m.Add(1, rec{5, 1}, rec{7, 2})
	m.Add(-1, rec{7, 1})
	ring := NewRing[rec](4, 0)
	ring.Push(rec{5, 2})
	ring.Push(rec{5, 1})
	m.AddRing(0, &ring)
	got := m.Sorted()
	want := []rec{{5, 1}, {5, 2}, {5, 1}, {7, 1}, {7, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}

// seq returns from, from+1, …, to-1.
func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// runs collects a ring's Each runs.
func runs(r *Ring[int]) [][]int {
	var out [][]int
	r.Each(func(run []int) { out = append(out, append([]int(nil), run...)) })
	return out
}

// A wrap that crosses a block boundary splits the oldest-first read at
// the wrap point and at every block edge, and loses nothing.
func TestRingWrapAcrossBlocks(t *testing.T) {
	capacity := 3 * ringBlock
	r := NewRing[int](capacity, 0)
	n := capacity + ringBlock + 10 // head lands 10 records into block 1
	for i := 0; i < n; i++ {
		r.Push(i)
	}
	want := seq(n-capacity, n)
	if got := r.AppendTo(nil); !reflect.DeepEqual(got, want) || r.Len() != capacity || r.Dropped() != uint64(n-capacity) {
		t.Fatalf("ring holds %d records from %d, dropped %d", len(got), got[0], r.Dropped())
	}
	var lens []int
	for _, run := range runs(&r) {
		lens = append(lens, len(run))
	}
	if want := []int{ringBlock - 10, ringBlock, ringBlock, 10}; !reflect.DeepEqual(lens, want) {
		t.Fatalf("run lengths %v, want %v", lens, want)
	}
}

// A capacity that is not a multiple of the block size cuts the last
// block short and wraps there.
func TestRingPartialLastBlock(t *testing.T) {
	capacity := 2*ringBlock + 7
	r := NewRing[int](capacity, 0)
	for i := 0; i < capacity; i++ {
		r.Push(i)
	}
	if len(r.blocks) != 3 || len(r.blocks[2]) != 7 || r.Dropped() != 0 {
		t.Fatalf("blocks %d, last %d records, dropped %d", len(r.blocks), len(r.blocks[len(r.blocks)-1]), r.Dropped())
	}
	n := capacity + 2*ringBlock + 3
	for i := capacity; i < n; i++ {
		r.Push(i)
	}
	if got := r.AppendTo(nil); !reflect.DeepEqual(got, seq(n-capacity, n)) || r.Dropped() != uint64(n-capacity) {
		t.Fatalf("ring after wrap starts at %d, dropped %d", got[0], r.Dropped())
	}
}

// reserve == capacity allocates every block up front, none beyond the
// capacity, and Push then never allocates.
func TestRingFullReserve(t *testing.T) {
	capacity := ringBlock + 100
	r := NewRing[int](capacity, capacity)
	if len(r.blocks) != 2 || len(r.blocks[1]) != 100 || r.Len() != 0 {
		t.Fatalf("reserved %d blocks, last %d records, len %d", len(r.blocks), len(r.blocks[1]), r.Len())
	}
	i := 0
	if allocs := testing.AllocsPerRun(3*capacity, func() { r.Push(i); i++ }); allocs != 0 {
		t.Fatalf("Push into a reserved ring allocates %v times", allocs)
	}
	if got := r.AppendTo(nil); !reflect.DeepEqual(got, seq(i-capacity, i)) {
		t.Fatalf("ring starts at %d after %d pushes", got[0], i)
	}
}

// After a wrap, AppendTo and Merge.AddRing both read oldest first.
func TestRingOrderAfterWrap(t *testing.T) {
	type rec struct{ at, ord int }
	r := NewRing[rec](ringBlock+1, 0)
	n := 2*ringBlock + 5
	for i := 0; i < n; i++ {
		r.Push(rec{at: 0, ord: i})
	}
	var want []rec
	for i := n - r.Cap(); i < n; i++ {
		want = append(want, rec{0, i})
	}
	if got := r.AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatal("AppendTo out of order after a wrap")
	}
	m := NewMerge(0, func(e *rec) (int64, uint64) { return int64(e.at), uint64(e.ord) })
	m.AddRing(0, &r)
	if !reflect.DeepEqual(m.items, want) {
		t.Fatal("AddRing out of order after a wrap")
	}
	if got := m.Sorted(); !reflect.DeepEqual(got, want) {
		t.Fatal("merge of one wrapped ring reorders it")
	}
}

// BenchmarkRingPush pushes trace-sized records the way an observer
// does: into a ring that starts empty, fills and then evicts. A fresh
// ring starts every 2×capacity pushes, so growth is half the work.
func BenchmarkRingPush(b *testing.B) {
	type event [184]byte
	const capacity = 1 << 16
	b.ReportAllocs()
	var r Ring[event]
	var e event
	for i := 0; i < b.N; i++ {
		if i%(2*capacity) == 0 {
			r = NewRing[event](capacity, 0)
		}
		e[0] = byte(i)
		r.Push(e)
	}
}
