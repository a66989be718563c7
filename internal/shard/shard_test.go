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
