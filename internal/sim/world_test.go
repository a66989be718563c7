package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ringWorld builds a world of parts partitions where each partition
// runs procs processes that alternate local jittered sleeps with
// cross-partition sends to the next partition (delivery lookahead
// ahead), bumping a per-partition counter on delivery. It exercises
// local scheduling, the outbox path, and barrier injection together.
func ringWorld(seed int64, parts, procs, rounds int, lookahead Duration) (*World, []int) {
	w := NewWorld(seed, parts, lookahead)
	counters := make([]int, parts)
	for pi := 0; pi < parts; pi++ {
		pi := pi
		src := w.Env(pi)
		dst := w.Env((pi + 1) % parts)
		for j := 0; j < procs; j++ {
			src.Spawn(fmt.Sprintf("p%d/%d", pi, j), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(Duration(p.Rand().Int63n(int64(lookahead))))
					tgt := (pi + 1) % parts
					src.Send(dst, p.Now().Add(lookahead), func() { counters[tgt]++ })
					p.Sleep(lookahead / 2)
				}
			})
		}
	}
	return w, counters
}

// TestWorldByteIdenticalAcrossWorkers is the sim-level half of the
// determinism contract: the complete dispatch sequence of every
// partition — times, sequence numbers and process names — must be
// identical for any worker count.
func TestWorldByteIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) (string, []int, uint64) {
		w, counters := ringWorld(7, 4, 3, 40, 2*Microsecond)
		logs := make([][]string, w.Parts())
		for i := 0; i < w.Parts(); i++ {
			i := i
			w.Env(i).dispatchHook = func(at Time, seq uint64, p *Proc) {
				name := "call"
				if p != nil {
					name = p.name
				}
				logs[i] = append(logs[i], fmt.Sprintf("%d@%d/%d:%s", i, int64(at), seq, name))
			}
		}
		w.SetWorkers(workers)
		if err := w.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		for _, l := range logs {
			for _, s := range l {
				sb.WriteString(s)
				sb.WriteByte('\n')
			}
		}
		return sb.String(), counters, w.Dispatched()
	}
	base, baseCounters, baseEvents := run(1)
	if baseEvents == 0 {
		t.Fatal("no events dispatched")
	}
	for _, workers := range []int{2, 8} {
		got, counters, events := run(workers)
		if got != base {
			t.Fatalf("workers=%d dispatch sequence differs from workers=1", workers)
		}
		if events != baseEvents {
			t.Fatalf("workers=%d dispatched %d events, workers=1 dispatched %d", workers, events, baseEvents)
		}
		for i := range counters {
			if counters[i] != baseCounters[i] {
				t.Fatalf("workers=%d counter[%d]=%d, want %d", workers, i, counters[i], baseCounters[i])
			}
		}
	}
}

// TestWorldMatchesSingleEnvWhenOnePartition pins the degenerate case:
// a one-partition world is the sequential scheduler bit-for-bit.
func TestWorldMatchesSingleEnvWhenOnePartition(t *testing.T) {
	trace := func(spawn func(*Env)) string {
		var sb strings.Builder
		e := NewEnv(3)
		e.dispatchHook = func(at Time, seq uint64, p *Proc) {
			fmt.Fprintf(&sb, "%d/%d\n", int64(at), seq)
		}
		spawn(e)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	workload := func(e *Env) {
		for j := 0; j < 5; j++ {
			e.Spawn(fmt.Sprintf("p%d", j), func(p *Proc) {
				for r := 0; r < 20; r++ {
					p.Sleep(Duration(p.Rand().Int63n(900)))
				}
			})
		}
	}
	want := trace(workload)

	var sb strings.Builder
	w := NewWorld(3, 1, Microsecond)
	w.Env(0).dispatchHook = func(at Time, seq uint64, p *Proc) {
		fmt.Fprintf(&sb, "%d/%d\n", int64(at), seq)
	}
	workload(w.Env(0))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatal("one-partition world diverged from the sequential scheduler")
	}
}

// TestWorldSendLookaheadViolationPanics pins the safety net: a
// cross-partition send inside the current window is a protocol bug and
// must fail loudly, not silently reorder.
func TestWorldSendLookaheadViolationPanics(t *testing.T) {
	w := NewWorld(1, 2, 10*Microsecond)
	w.Env(0).Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the window did not panic")
			}
		}()
		w.Env(0).Send(w.Env(1), p.Now(), func() {})
	})
	_ = w.Run()
}

// TestWorldDeadlock verifies the global deadlock check fires only when
// no partition can make progress.
func TestWorldDeadlock(t *testing.T) {
	w := NewWorld(1, 2, Microsecond)
	w.Env(0).Spawn("stuck", func(p *Proc) { p.Suspend() })
	err := w.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want world deadlock error, got %v", err)
	}
}

// TestWorldCrossPartitionFailurePropagates verifies a panic in any
// partition surfaces as the run's error, and deterministically so (the
// lowest-numbered failing partition wins).
func TestWorldFailurePropagates(t *testing.T) {
	w := NewWorld(1, 2, Microsecond)
	w.Env(1).Spawn("boom", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("kaboom")
	})
	w.Env(0).Spawn("fine", func(p *Proc) { p.Sleep(5 * Microsecond) })
	err := w.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want propagated panic, got %v", err)
	}
}

// TestMailboxZeroAlloc is the PR's AllocsPerRun guard for the
// cross-partition mailbox hot path: once the outboxes, gather buffers
// and heaps are warm, a full window cycle — enqueue via Send, barrier
// gather, sort, and heap injection — must allocate nothing. Measured
// at workers=1: the parallel path adds only the per-window worker
// goroutines, which are not per-message costs.
func TestMailboxZeroAlloc(t *testing.T) {
	w := NewWorld(11, 2, 2*Microsecond)
	a, b := w.Env(0), w.Env(1)
	hits := 0
	onDeliver := func() { hits++ }
	a.Spawn("sender", func(p *Proc) {
		for {
			for i := 0; i < 8; i++ {
				a.Send(b, p.Now().Add(2*Microsecond), onDeliver)
			}
			p.Sleep(2 * Microsecond)
		}
	})
	deadline := Time(0)
	step := func() {
		deadline = deadline.Add(20 * Microsecond)
		if err := w.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: grow the outbox, gather buffer and heap to steady state.
	for i := 0; i < 4; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(10, step)
	if allocs != 0 {
		t.Fatalf("mailbox window cycle allocates %v times per run, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("no messages delivered")
	}
}

// BenchmarkMailbox measures the cross-partition enqueue/drain path:
// one sender posting batches of deferred calls to the peer partition,
// windows advancing at the lookahead cadence.
func BenchmarkMailbox(bm *testing.B) {
	w := NewWorld(11, 2, 2*Microsecond)
	a, b := w.Env(0), w.Env(1)
	sink := 0
	onDeliver := func() { sink++ }
	a.Spawn("sender", func(p *Proc) {
		for {
			for i := 0; i < 8; i++ {
				a.Send(b, p.Now().Add(2*Microsecond), onDeliver)
			}
			p.Sleep(2 * Microsecond)
		}
	})
	deadline := Time(0)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		deadline = deadline.Add(2 * Microsecond)
		if err := w.RunUntil(deadline); err != nil {
			bm.Fatal(err)
		}
	}
	_ = sink
}

// TestWorldCallAtPanicBecomesRunError is the partitioned half: a
// deferred call that panics in a partition run by a helper goroutine
// must surface as the world's error, not kill the program.
func TestWorldCallAtPanicBecomesRunError(t *testing.T) {
	w := NewWorld(1, 2, Microsecond)
	w.SetWorkers(2)
	for i := 0; i < 2; i++ {
		e := w.Env(i)
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for r := 0; r < 10; r++ {
				p.Sleep(Microsecond)
			}
		})
	}
	w.Env(1).CallAt(Time(3500), func() { panic("deferred boom") })
	err := w.Run()
	if err == nil || !strings.HasPrefix(err.Error(), "sim: deferred call at 3500 panicked: deferred boom") {
		t.Fatalf("want the deferred call's panic as the run error, got %v", err)
	}
}

// TestWorldProcGoexitBecomesRunError is the partitioned half: a
// process's Goexit in a partition run by a helper goroutine must
// surface as the world's error, not unwind the helper and hang the
// window barrier.
func TestWorldProcGoexitBecomesRunError(t *testing.T) {
	w := NewWorld(1, 2, Microsecond)
	w.SetWorkers(2)
	for i := 0; i < 2; i++ {
		w.Env(i).Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for r := 0; r < 10; r++ {
				p.Sleep(Microsecond)
			}
		})
	}
	w.Env(1).Spawn("quitter", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		runtime.Goexit()
	})
	errc := make(chan error, 1)
	go func() { errc <- w.Run() }()
	select {
	case err := <-errc:
		if err == nil || err.Error() != `sim: process "quitter" exited via runtime.Goexit` {
			t.Fatalf("want the Goexit as the run error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("World.Run did not return after a process called runtime.Goexit")
	}
}
