package sim

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	e := NewEnv(1)
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5µs", woke)
	}
	if e.Now() != Time(5*Microsecond) {
		t.Fatalf("env now %v, want 5µs", e.Now())
	}
}

func TestSleepOrdering(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		order = append(order, "b")
	})
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		order = append(order, "a")
	})
	e.Spawn("c", func(p *Proc) {
		p.Sleep(2 * Microsecond) // same time as b; b spawned first so runs first
		order = append(order, "c")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSpawnTieBreakIsSpawnOrder(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn("p", func(p *Proc) { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not spawn order", order)
		}
	}
}

func TestYieldInterleaves(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Yield()
		order = append(order, "b2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("test")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			q.Wait(p)
			order = append(order, i)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(Microsecond)
		if n := q.Wake(1); n != 1 {
			t.Errorf("Wake(1) released %d", n)
		}
		p.Sleep(Microsecond)
		q.WakeAll()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v not FIFO", order)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("never")
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("boom", func(p *Proc) { panic("kaboom") })
	if err := e.Run(); err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	e := NewEnv(1)
	m := NewMutex("m")
	inside := 0
	max := 0
	for i := 0; i < 8; i++ {
		e.Spawn("locker", func(p *Proc) {
			for j := 0; j < 5; j++ {
				m.Lock(p)
				inside++
				if inside > max {
					max = inside
				}
				p.Sleep(Microsecond)
				inside--
				m.Unlock()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if max != 1 {
		t.Fatalf("mutex admitted %d holders", max)
	}
}

func TestMutexTryLock(t *testing.T) {
	e := NewEnv(1)
	m := NewMutex("m")
	e.Spawn("p", func(p *Proc) {
		if !m.TryLock() {
			t.Error("TryLock on free mutex failed")
		}
		if m.TryLock() {
			t.Error("TryLock on held mutex succeeded")
		}
		m.Unlock()
		if !m.TryLock() {
			t.Error("TryLock after Unlock failed")
		}
		m.Unlock()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEnv(1)
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * Microsecond)
			ticks++
		}
	})
	if err := e.RunUntil(Time(55 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != Time(55*Microsecond) {
		t.Fatalf("now = %v, want 55µs", e.Now())
	}
}

func TestStopEndsRun(t *testing.T) {
	e := NewEnv(1)
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ticks++
			if ticks == 3 {
				p.Env().Stop()
				return
			}
		}
	})
	e.Spawn("other", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	trace := func(seed int64) []int64 {
		e := NewEnv(seed)
		var out []int64
		for i := 0; i < 4; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(p.Rand().Intn(100)) * Microsecond)
					out = append(out, int64(p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatal("different trace lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSpawnAtFuture(t *testing.T) {
	e := NewEnv(1)
	var started Time
	e.SpawnAt("late", Time(40*Microsecond), func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != Time(40*Microsecond) {
		t.Fatalf("started at %v, want 40µs", started)
	}
}

func TestSpawnFromInsideProc(t *testing.T) {
	e := NewEnv(1)
	childRan := false
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Microsecond)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(Microsecond)
			childRan = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
	if e.Now() != Time(2*Microsecond) {
		t.Fatalf("now = %v, want 2µs", e.Now())
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		500 * Nanosecond:      "500ns",
		2 * Microsecond:       "2.000µs",
		1500 * Microsecond:    "1.500ms",
		2500 * Millisecond:    "2.500s",
		3*Microsecond + 500:   "3.500µs",
		Duration(1) * Second:  "1.000s",
		250 * Millisecond / 2: "125.000ms",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

// Property: for any set of sleep durations, processes wake in
// nondecreasing time order and the clock never goes backwards.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv(7)
		var wakes []Time
		for _, d := range delays {
			d := Duration(d) * Microsecond
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				wakes = append(wakes, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i] < wakes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO mutex hands the lock to waiters in request order.
func TestQuickMutexFIFOUnderLoad(t *testing.T) {
	f := func(n uint8) bool {
		workers := int(n%16) + 2
		e := NewEnv(3)
		m := NewMutex("m")
		var got []int
		for i := 0; i < workers; i++ {
			i := i
			e.Spawn("w", func(p *Proc) {
				p.Sleep(Duration(i)) // stagger arrival: i ns apart
				m.Lock(p)
				p.Sleep(Microsecond)
				got = append(got, i)
				m.Unlock()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventDispatch(b *testing.B) {
	e := NewEnv(1)
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestWaitQueueSetNameAppearsInDeadlockReport(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("anon")
	q.SetName("descriptive-name")
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	if !strings.Contains(err.Error(), "descriptive-name") {
		t.Fatalf("deadlock report %q misses queue name", err)
	}
}

func TestWaitingProcsSnapshot(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("park")
	e.Spawn("a", func(p *Proc) { q.Wait(p) })
	e.Spawn("b", func(p *Proc) {
		p.Sleep(Microsecond)
		if got := len(p.Env().WaitingProcs()); got != 1 {
			t.Errorf("WaitingProcs = %d, want 1", got)
		}
		q.WakeAll()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.WaitingProcs()); got != 0 {
		t.Fatalf("WaitingProcs after run = %d", got)
	}
}

// TestCallAtPanicBecomesRunError pins that a panicking deferred call
// ends the run with an error naming its instant, rather than escaping
// Run as a raw panic or being blamed on a process.
func TestCallAtPanicBecomesRunError(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("bystander", func(p *Proc) {
		p.Sleep(Microsecond)
		p.Sleep(Microsecond)
	})
	e.CallAt(Time(1500), func() { panic("deferred boom") })
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("deferred-call panic escaped Run: %v", r)
			}
		}()
		err = e.Run()
	}()
	if err == nil {
		t.Fatal("Run returned nil after a deferred call panicked")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "sim: deferred call at 1500 panicked: deferred boom") {
		t.Fatalf("error %q does not report the deferred call", msg)
	}
	if strings.Contains(msg, "bystander") {
		t.Fatalf("error %q blames the process that ran the loop", msg)
	}
}

// TestProcGoexitBecomesRunError pins that a process ending through
// runtime.Goexit (t.FailNow inside a process, say) ends the run with an
// error naming it, instead of passing for a normal finish, and that the
// Goexit does not unwind the goroutine that called Run.
func TestProcGoexitBecomesRunError(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("quitter", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	e.Spawn("bystander", func(p *Proc) {
		for r := 0; r < 10; r++ {
			p.Sleep(Microsecond)
		}
	})
	err := e.Run()
	if err == nil || err.Error() != `sim: process "quitter" exited via runtime.Goexit` {
		t.Fatalf("want the Goexit as the run error, got %v", err)
	}
	if e.Now() != Time(Microsecond) {
		t.Fatalf("run went on to %v after the Goexit at %v", e.Now(), Time(Microsecond))
	}
}

// TestProcResumedFromAnotherGoroutine runs one program with its first
// RunUntil on one goroutine, its second on another and the drain on the
// test goroutine, with processes parked across each boundary: a
// process's coroutine may be resumed by any goroutine, as World workers
// do across windows, and the dispatch sequence must not notice.
func TestProcResumedFromAnotherGoroutine(t *testing.T) {
	digest := func(split bool) string {
		log := newSchedLog()
		e := NewEnv(11)
		e.dispatchHook = log.dispatch
		mixedProgram(e, "")
		if split {
			for _, until := range []Time{3 * Time(Microsecond), 9 * Time(Microsecond)} {
				errc := make(chan error)
				go func() { errc <- e.RunUntil(until) }()
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				if e.Live() == 0 {
					t.Fatalf("nothing live at %v; want processes parked across the boundary", until)
				}
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.Live() != 0 {
			t.Fatalf("%d processes still live after drain", e.Live())
		}
		return log.sum()
	}
	if got, want := digest(true), digest(false); got != want {
		t.Fatalf("dispatch digest %s across goroutines, %s on one", got, want)
	}
}
