// Conservative parallel discrete-event simulation: a World is a set of
// partition environments that advance in lock-stepped time windows on
// real goroutines.
//
// The synchronization protocol is classic conservative lookahead
// (Chandy–Misra style, with a global window barrier instead of per-link
// null messages). Let E_min be the earliest pending event across every
// partition and L the lookahead — the minimum virtual delay of any
// cross-partition interaction. Every partition may then dispatch all
// events with time ≤ E_min + L − 1 without hearing from its peers:
// anything a peer sends while executing this window carries a delivery
// time ≥ (its current time) + L ≥ E_min + L, which lies strictly beyond
// the window. Cross-partition sends travel through per-pair outboxes
// and are injected into target heaps at the barrier between windows,
// sorted by (delivery time, source partition, per-pair sequence), so
// the merged order is a pure function of the simulation state — never
// of the number of worker threads or their scheduling.
//
// Worker count therefore only selects how many partitions execute
// concurrently inside one window; one thread or sixteen produce
// bit-identical schedules, which is what lets golden tests pin the
// output while the wall clock scales with shards × workers.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxTime is the sentinel deadline used by Run (drain to completion).
const maxTime = Time(1<<62 - 1)

// xmsg is one cross-partition deferred call in flight: fn must execute
// in the target partition at virtual time at. src and seq give the
// deterministic merge order for ties at the same instant.
type xmsg struct {
	at  Time
	seq uint64
	src int32
	fn  func()
}

// outbox is one ordered source→target mailbox. seq counts every
// message ever sent on the pair, so ties at one delivery instant merge
// in send order.
type outbox struct {
	msgs []xmsg
	seq  uint64
}

// inbatch is a target partition's reusable gather-and-sort buffer for
// one barrier's incoming messages. It implements sort.Interface so the
// barrier sorts without allocating.
type inbatch struct{ msgs []xmsg }

func (b *inbatch) Len() int      { return len(b.msgs) }
func (b *inbatch) Swap(i, j int) { b.msgs[i], b.msgs[j] = b.msgs[j], b.msgs[i] }
func (b *inbatch) Less(i, j int) bool {
	x, y := &b.msgs[i], &b.msgs[j]
	if x.at != y.at {
		return x.at < y.at
	}
	if x.src != y.src {
		return x.src < y.src
	}
	return x.seq < y.seq
}

// World is a partitioned simulation: one Env per partition, advancing
// together through conservative time windows. Processes and deferred
// calls live in exactly one partition; interactions that cross
// partitions must be routed through Env.Send with a delay of at least
// the world's lookahead.
type World struct {
	envs      []*Env
	lookahead Duration
	workers   int
	in        []inbatch
	// bound is the inclusive end of the window currently executing;
	// Send validates the lookahead contract against it. It is written
	// only between windows.
	bound Time

	// Persistent window-execution pool, alive only inside RunUntil:
	// spawning goroutines per window would cost more than many windows
	// contain. workC hands each helper one window bound; next is the
	// shared partition cursor; wg is the window barrier.
	workC chan Time
	next  int64
	wg    sync.WaitGroup

	// rt collects executor introspection (see runtime.go): window and
	// mailbox counters plus wall-clock timings, exposed via RuntimeStats.
	rt worldRuntime
}

// NewWorld creates a world of parts partitions. Partition 0's random
// stream is seeded with seed exactly like NewEnv(seed); the other
// partitions draw their seeds from a splitmix of (seed, partition), so
// every partition has an independent deterministic stream. lookahead
// is the minimum virtual delay of any cross-partition interaction and
// must be positive.
func NewWorld(seed int64, parts int, lookahead Duration) *World {
	if parts < 1 {
		panic("sim: NewWorld needs at least one partition")
	}
	if lookahead <= 0 {
		panic("sim: NewWorld needs a positive lookahead")
	}
	w := &World{
		envs:      make([]*Env, parts),
		lookahead: lookahead,
		workers:   1,
		in:        make([]inbatch, parts),
	}
	w.rt.injected = make([]uint64, parts)
	w.rt.mailboxHWM = make([]int, parts)
	w.rt.busyNS = make([]int64, parts)
	for i := range w.envs {
		e := NewEnv(partSeed(seed, i))
		e.world = w
		e.part = i
		e.outs = make([]outbox, parts)
		w.envs[i] = e
	}
	return w
}

// partSeed derives partition i's random seed: the caller's seed
// verbatim for partition 0, a splitmix64 mix otherwise.
func partSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Env returns partition i's environment.
func (w *World) Env(i int) *Env { return w.envs[i] }

// Parts returns the number of partitions.
func (w *World) Parts() int { return len(w.envs) }

// Lookahead returns the world's conservative lookahead.
func (w *World) Lookahead() Duration { return w.lookahead }

// SetWorkers sets how many OS threads execute partitions concurrently
// within a window. It only affects wall-clock speed: the schedule is
// identical for every worker count. Values outside [1, Parts()] are
// clamped.
func (w *World) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(w.envs) {
		n = len(w.envs)
	}
	w.workers = n
}

// Workers returns the configured worker count (after clamping).
func (w *World) Workers() int { return w.workers }

// Dispatched sums the partitions' dispatched-event counters.
func (w *World) Dispatched() uint64 {
	var n uint64
	for _, e := range w.envs {
		n += e.dispatched
	}
	return n
}

// Live sums the partitions' live-process counts.
func (w *World) Live() int {
	n := 0
	for _, e := range w.envs {
		n += e.live
	}
	return n
}

// Run dispatches events until none remain anywhere or a partition
// stops, like Env.Run for a single environment.
func (w *World) Run() error { return w.RunUntil(maxTime) }

// RunUntil advances every partition through conservative windows until
// the earliest pending event lies beyond deadline (or nothing is
// pending). Clocks are left at the deadline, exactly like
// Env.RunUntil. An error reports the lowest-numbered partition's
// process panic, or a global deadlock (every partition idle with
// processes parked and no cross-partition message in flight).
func (w *World) RunUntil(deadline Time) error {
	for _, e := range w.envs {
		e.stopped = false
	}
	if k := w.workers; k > 1 {
		w.startPool(k)
		defer w.stopPool()
	}
	for {
		injected := w.inject()
		emin := maxTime
		for _, e := range w.envs {
			if len(e.events) > 0 && e.events[0].at < emin {
				emin = e.events[0].at
			}
		}
		if emin == maxTime || emin > deadline {
			break
		}
		bound := emin.Add(w.lookahead) - 1
		if bound > deadline {
			bound = deadline
		}
		w.bound = bound
		d0 := w.Dispatched()
		t0 := time.Now()
		w.runWindow(bound)
		w.rt.windowNS += int64(time.Since(t0))
		w.rt.noteWindow(emin, bound, w.Dispatched()-d0, injected)
		if err := w.failure(); err != nil {
			return err
		}
		for _, e := range w.envs {
			if e.stopped {
				return nil
			}
		}
	}
	for _, e := range w.envs {
		if e.now < deadline && deadline < maxTime {
			e.now = deadline
		}
	}
	waiting := 0
	for _, e := range w.envs {
		waiting += e.waiting
	}
	if waiting > 0 && !w.pendingEvents() {
		names := []string{}
		for _, e := range w.envs {
			names = append(names, e.waiterNames()...)
		}
		return fmt.Errorf("sim: world deadlock: %d process(es) parked forever across %d partitions: %v",
			waiting, len(w.envs), names)
	}
	return nil
}

// pendingEvents reports whether any partition still has queued events
// (outboxes are empty whenever this is called, right after inject).
func (w *World) pendingEvents() bool {
	for _, e := range w.envs {
		if len(e.events) > 0 {
			return true
		}
	}
	return false
}

// failure returns the lowest-numbered partition's failure, so the
// reported error does not depend on worker scheduling.
func (w *World) failure() error {
	for _, e := range w.envs {
		if e.failure != nil {
			return e.failure
		}
	}
	return nil
}

// inject drains every outbox into its target partition's event heap.
// Each target gathers its incoming messages from all sources in source
// order, sorts them by (delivery time, source partition, pair
// sequence), and pushes them with fresh local sequence numbers — the
// deterministic merge the byte-identity contract rests on. It runs
// single-threaded, between windows, and returns the total number of
// messages injected.
func (w *World) inject() uint64 {
	var total uint64
	for t := range w.envs {
		b := &w.in[t]
		b.msgs = b.msgs[:0]
		for s := range w.envs {
			box := &w.envs[s].outs[t]
			if len(box.msgs) == 0 {
				continue
			}
			b.msgs = append(b.msgs, box.msgs...)
			// Release the fn references so the pooled backing array
			// does not pin dead closures.
			for i := range box.msgs {
				box.msgs[i].fn = nil
			}
			box.msgs = box.msgs[:0]
		}
		if len(b.msgs) == 0 {
			continue
		}
		sort.Sort(b)
		w.rt.noteInject(t, len(b.msgs))
		total += uint64(len(b.msgs))
		e := w.envs[t]
		for i := range b.msgs {
			e.seq++
			e.events.push(event{at: b.msgs[i].at, seq: e.seq, fn: b.msgs[i].fn})
			b.msgs[i].fn = nil
		}
	}
	return total
}

// startPool spawns k−1 helper goroutines that park on workC between
// windows (the caller of runWindow is the k-th thread). A persistent
// pool amortizes goroutine startup across the run's many short
// windows.
func (w *World) startPool(k int) {
	w.workC = make(chan Time)
	for i := 0; i < k-1; i++ {
		go func() {
			for bound := range w.workC {
				w.drain(bound)
				w.wg.Done()
			}
		}()
	}
}

// stopPool releases the helpers.
func (w *World) stopPool() {
	close(w.workC)
	w.workC = nil
}

// drain executes partitions' windows until none are left unclaimed.
// Each claimed partition's busy time accrues to its own slot: exactly
// one worker owns a partition per window, and the barrier orders the
// write before any cross-thread read.
func (w *World) drain(bound Time) {
	n := len(w.envs)
	for {
		j := int(atomic.AddInt64(&w.next, 1)) - 1
		if j >= n {
			return
		}
		t0 := time.Now()
		w.envs[j].runWindow(bound)
		w.rt.busyNS[j] += int64(time.Since(t0))
	}
}

// runWindow executes one window on up to workers threads. Partitions
// share nothing during a window (the lookahead contract routes every
// interaction through the next barrier — observers included: each
// partition records into its own shard, merged at snapshot time), and
// the WaitGroup gives the barrier its happens-before edge, so
// cross-partition reads of state applied in earlier windows are
// race-free.
func (w *World) runWindow(bound Time) {
	if w.workers <= 1 || w.workC == nil {
		for _, e := range w.envs {
			t0 := time.Now()
			e.runWindow(bound)
			w.rt.busyNS[e.part] += int64(time.Since(t0))
		}
		return
	}
	k := w.workers
	atomic.StoreInt64(&w.next, 0)
	w.wg.Add(k - 1)
	for i := 0; i < k-1; i++ {
		w.workC <- bound
	}
	w.drain(bound)
	t0 := time.Now()
	w.wg.Wait()
	w.rt.barrierNS += int64(time.Since(t0))
}

// runWindow dispatches this partition's events with time ≤ bound and
// leaves the clock at bound. It is RunUntil's dispatch loop without
// the deadlock check (an idle partition here may simply be waiting for
// a cross-partition message; the world checks for global deadlock at
// the barrier).
func (e *Env) runWindow(bound Time) {
	e.runTo(bound)
	if e.failure == nil && e.now < bound {
		e.now = bound
	}
}

// Send schedules fn to run in partition env to at virtual time at.
// Within one partition it is exactly CallAt. Across partitions at must
// lie beyond the current window (the lookahead contract guarantees
// this for any interaction delayed by ≥ Lookahead); the call is
// buffered in the per-pair outbox and injected at the next barrier.
func (e *Env) Send(to *Env, at Time, fn func()) {
	if to == e || e.world == nil {
		e.CallAt(at, fn)
		return
	}
	if to.world != e.world {
		panic("sim: Send across worlds")
	}
	if at <= e.world.bound {
		panic(fmt.Sprintf("sim: Send(%v) violates lookahead: window ends at %v", at, e.world.bound))
	}
	box := &e.outs[to.part]
	box.seq++
	box.msgs = append(box.msgs, xmsg{at: at, seq: box.seq, src: int32(e.part), fn: fn})
}

// Part returns the environment's partition index (0 for a standalone
// environment).
func (e *Env) Part() int { return e.part }

// World returns the world the environment belongs to, or nil for a
// standalone environment.
func (e *Env) World() *World { return e.world }
