package sim

import (
	"fmt"
	"testing"
)

// BenchmarkDispatch measures the scheduler's raw dispatch rate with a
// realistically deep event heap: 64 processes sleeping in staggered
// loops, so every dispatch pays a real heap sift.
func BenchmarkDispatch(b *testing.B) {
	e := NewEnv(1)
	per := b.N/64 + 1
	for i := 0; i < 64; i++ {
		d := Duration(1+i%7) * Microsecond
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(d)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures one process switch: two processes
// ping-pong through a WaitQueue at a single instant, so every dispatch
// hands control to the other process and none is a self-resume.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEnv(1)
	q := NewWaitQueue("pingpong")
	n := 0
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for n < b.N {
				n++
				q.Wake(1)
				q.Wait(p)
			}
			q.WakeAll()
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestDispatchSteadyStateZeroAlloc pins the zero-allocation dispatch
// contract: once processes are spawned and the event heap has grown to
// its working size, running the scheduler allocates nothing.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 8; i++ {
		d := Duration(1+i%3) * Microsecond
		e.Spawn(fmt.Sprintf("spinner%d", i), func(p *Proc) {
			for {
				p.Sleep(d)
			}
		})
	}
	deadline := Time(0)
	step := func() {
		deadline += Time(100 * Microsecond)
		if err := e.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm up: heap growth, proc shells, goroutine handoff
	if avg := testing.AllocsPerRun(50, step); avg > 0 {
		t.Fatalf("steady-state dispatch allocates %.1f objects per 100µs window, want 0", avg)
	}
}

// TestStopOutsideProcPanics pins Stop's contract: calling it from
// outside a running process (or CallAt function) would race the run
// loop, so it must panic instead of silently corrupting state.
func TestStopOutsideProcPanics(t *testing.T) {
	e := NewEnv(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Stop from outside a running process did not panic")
		}
	}()
	e.Stop()
}

// TestStopInsideProcAllowed is the positive half: from process context
// Stop is the documented way to end a run.
func TestStopInsideProcAllowed(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(Microsecond)
		e.Stop()
		p.Sleep(Second) // never dispatched
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() false after in-process Stop")
	}
}

// dispatchRec is one observed scheduler dispatch.
type dispatchRec struct {
	at   Time
	seq  uint64
	name string
}

// nopObserver stands in for a tracing recorder: it receives every
// lifecycle callback and must not perturb the schedule.
type nopObserver struct{ calls int }

func (o *nopObserver) ProcSpawn(string, Time)         { o.calls++ }
func (o *nopObserver) ProcBlock(string, string, Time) { o.calls++ }
func (o *nopObserver) ProcWake(string, Time)          { o.calls++ }
func (o *nopObserver) ProcFinish(string, Time)        { o.calls++ }

// contendedRun drives a small contended workload — shared mutex,
// shared wait queue, rng-jittered sleeps — and returns the complete
// dispatch sequence the scheduler produced.
func contendedRun(t *testing.T, seed int64, obs Observer) []dispatchRec {
	t.Helper()
	e := NewEnv(seed)
	if obs != nil {
		e.SetObserver(obs)
	}
	var recs []dispatchRec
	e.dispatchHook = func(at Time, seq uint64, p *Proc) {
		name := ""
		if p != nil {
			name = p.Name()
		}
		recs = append(recs, dispatchRec{at, seq, name})
	}
	mu := NewMutex("shared")
	q := NewWaitQueue("turnstile")
	token := 0
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			for iter := 0; iter < 20; iter++ {
				p.Sleep(Duration(1 + p.Rand().Int63n(5)))
				mu.Lock(p)
				token++
				if token%4 == 0 {
					q.WakeAll()
				}
				mu.Unlock()
				if token%5 == 1 {
					q.Wait(p)
				}
			}
			q.WakeAll() // let stragglers drain
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestDispatchSequenceDeterminism is the property behind every golden
// test in this repository: the same seed yields the exact same
// (time, seq, process) dispatch sequence, and attaching an observer —
// how tracing hooks in — does not move a single event.
func TestDispatchSequenceDeterminism(t *testing.T) {
	base := contendedRun(t, 7, nil)
	if len(base) == 0 {
		t.Fatal("no dispatches recorded")
	}
	rerun := contendedRun(t, 7, nil)
	obs := &nopObserver{}
	observed := contendedRun(t, 7, obs)
	if obs.calls == 0 {
		t.Fatal("observer never invoked")
	}
	for name, got := range map[string][]dispatchRec{"rerun": rerun, "observed": observed} {
		if len(got) != len(base) {
			t.Fatalf("%s dispatched %d events, base %d", name, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("%s diverges at dispatch %d: %+v vs %+v", name, i, got[i], base[i])
			}
		}
	}
	other := contendedRun(t, 8, nil)
	if len(other) == len(base) {
		same := true
		for i := range base {
			if other[i] != base[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules; rng is not feeding the schedule")
		}
	}
}
