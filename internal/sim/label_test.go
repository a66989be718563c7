package sim

import (
	"fmt"
	"strings"
	"testing"
)

// countLabel is a Labeler that counts how often its label is built.
type countLabel struct {
	id    int
	calls int
}

func (l *countLabel) WaitLabel() string {
	l.calls++
	return fmt.Sprintf("lazy %d", l.id)
}

// blockObserver records the queue labels ProcBlock receives.
type blockObserver struct {
	nopObserver
	queues []string
}

func (o *blockObserver) ProcBlock(_, queue string, _ Time) { o.queues = append(o.queues, queue) }

// TestLabelerFormatsForObserverAtWait pins the observer half of the
// lazy-label contract: an attached observer receives the label as the
// labeler renders it at the moment the process parks.
func TestLabelerFormatsForObserverAtWait(t *testing.T) {
	e := NewEnv(1)
	obs := &blockObserver{}
	e.SetObserver(obs)
	lab := &countLabel{id: 1}
	q := NewWaitQueue("eager")
	q.SetLabeler(lab)
	e.Spawn("waiter", func(p *Proc) {
		q.Wait(p)
		lab.id = 2
		q.Wait(p)
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(Microsecond)
		q.WakeAll()
		p.Sleep(Microsecond)
		q.WakeAll()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"lazy 1", "lazy 2"}; strings.Join(obs.queues, ",") != strings.Join(want, ",") {
		t.Fatalf("observer saw queue labels %q, want %q", obs.queues, want)
	}
}

// TestLabelerAppearsInDeadlockReport pins the report half: a deadlock
// report renders the labeler's label, and the labeler is consulted only
// then.
func TestLabelerAppearsInDeadlockReport(t *testing.T) {
	e := NewEnv(1)
	lab := &countLabel{id: 7}
	q := NewWaitQueue("eager")
	q.SetLabeler(lab)
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	if !strings.Contains(err.Error(), "stuck @ lazy 7") {
		t.Fatalf("deadlock report %q misses the lazy label", err)
	}
	if lab.calls != 1 {
		t.Fatalf("label built %d times, want once (for the report)", lab.calls)
	}
	if got := e.WaitingProcs(); len(got) != 1 || got[0] != "stuck @ lazy 7" {
		t.Fatalf("WaitingProcs = %q", got)
	}
	m := NewMutex("m")
	m.SetLabeler(lab)
	if got := m.q.label(); got != "lazy 7" {
		t.Fatalf("mutex labeler rendered %q", got)
	}
	q.SetName("named")
	if got := q.label(); got != "named" {
		t.Fatalf("SetName after SetLabeler left label %q", got)
	}
}

// TestLabeledWaitWakeZeroAlloc pins the hot-path half: with no
// observer, parking on and waking from a labelled queue never builds
// the label and allocates nothing.
func TestLabeledWaitWakeZeroAlloc(t *testing.T) {
	e := NewEnv(1)
	lab := &countLabel{id: 1}
	q := NewWaitQueue("")
	q.SetLabeler(lab)
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("ping%d", i), func(p *Proc) {
			for {
				p.Sleep(100)
				q.Wake(1)
				q.Wait(p)
			}
		})
	}
	deadline := Time(0)
	step := func() {
		deadline += Time(10 * Microsecond)
		if err := e.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if avg := testing.AllocsPerRun(50, step); avg > 0 {
		t.Fatalf("labelled Wait/Wake allocates %.1f objects per window, want 0", avg)
	}
	if lab.calls != 0 {
		t.Fatalf("label built %d times with no observer or report", lab.calls)
	}
}
