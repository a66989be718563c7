package core

import (
	"strings"
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
)

// TestObjectWaitLabels pins the strings a deadlock report shows for
// each of an object's labelled wait queues. They are rendered lazily
// from the object and transaction fields and must keep the format the
// eagerly built names had.
func TestObjectWaitLabels(t *testing.T) {
	lay := layout.NewRecord(layout.Schema{ID: 3, Name: "t", CellSizes: []int{8, 8}})
	o := newObject(3, 7, 0, lay, nil)
	o.admitting, o.remoteLocks, o.writers, o.readers = true, 0b101, 2, 1
	txn := &txnState{id: 9, tsExec: 42}

	e := sim.NewEnv(1)
	o.mu.TryLock()
	e.Spawn("locker", func(p *sim.Proc) { o.mu.Lock(p) })
	e.Spawn("admitter", func(p *sim.Proc) {
		o.noteAdmitWait()
		o.admitting = false // the label reports the state at the wait
		o.stateQ.Wait(p)
	})
	e.Spawn("dependent", func(p *sim.Proc) { txn.await(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected a deadlock report")
	}
	for _, want := range []string{
		"locker @ mutex obj 3/7",
		"admitter @ obj 3/7 admitting=true flushing=false locks=101 w=2 r=1",
		"dependent @ await txn9(tsExec=42,status=0)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q lacks %q", err, want)
		}
	}
}
