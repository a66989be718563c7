// Package sim implements a deterministic cooperative discrete-event
// simulator. All protocol code in this repository runs inside sim
// processes: virtual time advances only when every process is blocked,
// exactly one process executes at a time, and ties are broken by spawn
// order, so a run is fully reproducible for a given seed.
//
// The simulator exists because the paper's behaviour is measured in
// microseconds of network round-trips; wall-clock goroutine scheduling
// cannot reproduce that reliably, and virtual time lets tests assert
// exact round-trip counts and latencies.
//
// The scheduler is built for wall-clock speed as much as determinism:
// the event queue is a hand-rolled non-boxing min-heap (no
// container/heap interface traffic), wait bookkeeping lives on the
// Proc itself rather than in side maps, finished Proc shells are
// pooled for reuse by later Spawns, and deferred calls (CallAt) let
// I/O models apply side effects at an exact virtual instant without
// waking the issuing process twice. Dispatched events are counted so
// harnesses can report events/sec.
//
// There is no scheduler goroutine. Each process is a coroutine
// (iter.Pull), and the goroutine that called RunUntil (or runs a World
// window) is the one dispatcher that resumes them. A process that
// parks runs the dispatch loop (advance) on its own stack: it pops the
// next event, runs due deferred calls inline, and either keeps running
// (it is next) or hands the next process to the dispatcher and
// yields. A process switch is one coroutine switch, which unlike a
// channel send wakes no scheduler thread. Wait-queue labels are lazy
// for the same reason: a queue may carry a Labeler that is formatted
// only when an observer or a deadlock report reads it.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Micros reports the duration as a float number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports the duration as a float number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Add advances a Time by a Duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the Duration between two Times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is one heap entry: either a process wakeup (proc != nil) or a
// deferred call (fn != nil). Exactly one of the two is set. gen guards
// against waking a pooled Proc shell that has been reused since the
// event was queued.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
	gen  uint32
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq).
// container/heap would box every event through an interface on push
// and pop; this is the hottest data structure in the repository, so it
// stays monomorphic.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	// Sift up.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release proc/fn references
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s.less(r, l) {
			min = r
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Observer receives scheduler lifecycle callbacks: process spawn,
// parking on a wait queue, wakeup, and exit. Observers must not touch
// the environment (no Spawn, no clock access beyond the at argument) —
// they exist for tracing, and tracing must not perturb the schedule.
type Observer interface {
	ProcSpawn(name string, at Time)
	ProcBlock(name, queue string, at Time)
	ProcWake(name string, at Time)
	ProcFinish(name string, at Time)
}

// Env is a simulation environment: a virtual clock, an event queue and
// a set of cooperative processes.
type Env struct {
	now    Time
	events eventHeap
	seq    uint64
	// bound is the inclusive time limit of the run in progress
	// (RunUntil's deadline or the World window's end); advance
	// dispatches nothing beyond it.
	bound      Time
	rng        *rand.Rand
	live       int // processes spawned and not yet finished
	waiting    int // processes parked with no pending wake event
	stopped    bool
	failure    error
	obs        Observer
	dispatched uint64 // events dispatched across all Run calls

	// procs holds every distinct Proc shell ever spawned (live,
	// finished, and pooled); it is the lazy scan set for deadlock
	// reports. free is the pool of finished shells ready for reuse.
	procs []*Proc
	free  []*Proc

	// current is the process whose coroutine is running, nil while the
	// dispatch loop runs between processes; inCall is true while a
	// deferred CallAt function runs. Together they enforce Stop's
	// contract. next is the process a parking or finishing coroutine
	// hands back to the dispatcher (nil ends the run).
	current *Proc
	next    *Proc
	inCall  bool

	// dispatchHook, when non-nil, observes every dispatched event
	// (tests use it to assert full-sequence determinism).
	dispatchHook func(at Time, seq uint64, p *Proc)

	// world/part/outs wire the environment into a partitioned World
	// (see world.go): part is the partition index and outs the per-pair
	// cross-partition mailboxes. All nil/zero for a standalone Env.
	world *World
	part  int
	outs  []outbox
}

// SetObserver installs obs to receive scheduler lifecycle events. A
// nil obs disables observation.
func (e *Env) SetObserver(obs Observer) { e.obs = obs }

// NewEnv returns an empty environment whose random source is seeded
// with seed.
func NewEnv(seed int64) *Env {
	e := &Env{
		rng:    rand.New(rand.NewSource(seed)),
		events: make(eventHeap, 0, 64),
	}
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must
// only be used from the currently running process (or outside Run),
// which the cooperative scheduler guarantees.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Live reports the number of processes that have been spawned and have
// not yet finished.
func (e *Env) Live() int { return e.live }

// Waiting reports the number of processes currently parked on wait
// queues or suspended with no pending wake event. Live() - Waiting() is
// the runnable-process count the metrics plane samples per window.
func (e *Env) Waiting() int { return e.waiting }

// Dispatched reports the total number of events the scheduler has
// dispatched (process wakeups and deferred calls) across every Run and
// RunUntil on this environment. It is the denominator-free half of an
// events/sec measurement.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// Proc is a simulated process. Its function runs as a coroutine that
// only the dispatcher resumes; everything it does between two blocking
// calls is atomic in virtual time.
//
// Finished Proc shells are pooled and reused by later Spawns, each
// incarnation with a fresh coroutine; gen disambiguates incarnations
// so a stale queued event can never wake a reused shell.
type Proc struct {
	env  *Env
	name string
	// resume runs the coroutine until it parks or finishes; yield,
	// called on the coroutine, switches back to the dispatcher.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	done   bool
	fn     func(*Proc)
	gen    uint32

	// waiting/waitQ are the Proc-resident wait bookkeeping: set while
	// the process is parked on a WaitQueue (or suspended awaiting a
	// deferred resume), with the queue whose label deadlock reports
	// render. Keeping them here avoids a map mutation on every
	// Wait/Wake.
	waiting bool
	waitQ   *WaitQueue

	// traceCtx carries an opaque per-process tracing context (the
	// current transaction span). It lives here so lower layers (the
	// fabric) can attribute work to the span without importing the
	// tracing package or the engine.
	traceCtx any

	// whyCtx carries the per-process causality context (the current
	// transaction's wait-for node), kept separate from traceCtx so the
	// two observability layers enable independently.
	whyCtx any

	// flightCtx carries the per-process flight-recorder context (the
	// current transaction's latency-budget record), independent of the
	// other observability contexts for the same reason.
	flightCtx any
}

// TraceCtx returns the process's tracing context, or nil.
func (p *Proc) TraceCtx() any { return p.traceCtx }

// SetTraceCtx attaches a tracing context to the process.
func (p *Proc) SetTraceCtx(ctx any) { p.traceCtx = ctx }

// WhyCtx returns the process's causality context, or nil.
func (p *Proc) WhyCtx() any { return p.whyCtx }

// SetWhyCtx attaches a causality context to the process.
func (p *Proc) SetWhyCtx(ctx any) { p.whyCtx = ctx }

// FlightCtx returns the process's flight-recorder context, or nil.
func (p *Proc) FlightCtx() any { return p.flightCtx }

// SetFlightCtx attaches a flight-recorder context to the process.
func (p *Proc) SetFlightCtx(ctx any) { p.flightCtx = ctx }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Rand returns the deterministic random source shared by the
// environment.
func (p *Proc) Rand() *rand.Rand { return p.env.rng }

// newProc returns a Proc shell: pooled if one is free, freshly
// allocated otherwise. The caller schedules it and creates its
// coroutine.
func (e *Env) newProc(name string, fn func(*Proc)) *Proc {
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.name, p.fn = name, fn
		p.done = false
		p.waiting = false
		p.waitQ = nil
		p.traceCtx = nil
		p.whyCtx = nil
		p.flightCtx = nil
		p.gen++
		return p
	}
	p := &Proc{env: e, name: name, fn: fn}
	e.procs = append(e.procs, p)
	return p
}

// Spawn creates a process and schedules it to start at the current
// virtual time. It may be called before Run or from inside a running
// process.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc { return e.SpawnAt(name, e.now, fn) }

// SpawnAt is Spawn with an explicit start time, which must not be in
// the past.
func (e *Env) SpawnAt(name string, at Time, fn func(*Proc)) *Proc {
	if at < e.now {
		panic(fmt.Sprintf("sim: SpawnAt(%v) in the past (now %v)", at, e.now))
	}
	p := e.newProc(name, fn)
	p.resume, _ = iter.Pull(p.run)
	e.live++
	e.schedule(p, at)
	if e.obs != nil {
		e.obs.ProcSpawn(name, at)
	}
	return p
}

func (e *Env) schedule(p *Proc, at Time) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p, gen: p.gen})
}

// CallAt schedules fn to run at virtual time at, which must not be in
// the past. The call executes inside the dispatch loop, between
// process dispatches, atomically at its instant — on the dispatcher or
// on whichever process's coroutine runs the loop, which is no
// process's business: fn must not touch the Proc that happens to run
// it. fn may inspect the environment, mutate model state and Resume
// suspended processes, but it must not block, park, or run for
// unbounded time. A panic in fn ends the run with an error, like a
// panic in a process. Ties with process wakeups at the same instant
// are broken by schedule order (seq), exactly as between two wakeups.
//
// CallAt exists for I/O models: the RDMA fabric applies a verb batch
// at the round-trip midpoint via CallAt while the issuing process
// stays parked until the completion instant, so a round-trip parks and
// wakes the process once instead of twice.
func (e *Env) CallAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: CallAt(%v) in the past (now %v)", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// Suspend parks the calling process with no scheduled wakeup. A
// deferred call (CallAt) or another process must later Resume it;
// until then it counts as waiting in deadlock reports, labelled
// "suspended". Suspend is the single-park primitive beneath the
// fabric's round-trip model.
func (p *Proc) Suspend() {
	p.waiting = true
	p.waitQ = &suspended
	p.env.waiting++
	p.park()
}

// Resume schedules a Suspended process to continue at time at (not in
// the past). It is the counterpart of Suspend and is typically called
// from a CallAt function.
func (e *Env) Resume(p *Proc, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: Resume(%v) in the past (now %v)", at, e.now))
	}
	if !p.waiting {
		panic(fmt.Sprintf("sim: Resume of process %q that is not suspended", p.name))
	}
	p.waiting = false
	p.waitQ = nil
	e.waiting--
	e.schedule(p, at)
}

// suspended labels processes parked by Suspend in deadlock reports.
// Nothing ever waits on it, so partitions may share it.
var suspended = WaitQueue{name: "suspended"}

// run is p's coroutine body: it runs the process function, then
// retires the process and runs the dispatch loop for the next one.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	returned := false
	defer func() {
		e := p.env
		r := recover()
		goexit := r == nil && !returned
		if r != nil {
			buf := make([]byte, 16<<10)
			n := runtime.Stack(buf, false)
			e.failure = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, buf[:n])
		} else if goexit {
			e.failure = fmt.Errorf("sim: process %q exited via runtime.Goexit", p.name)
		}
		p.done = true
		e.live--
		if e.obs != nil {
			e.obs.ProcFinish(p.name, e.now)
		}
		// Return the shell to the pool before running the loop: a
		// deferred call advance runs may Spawn into it, so this
		// coroutine touches p no further.
		e.free = append(e.free, p)
		e.current = nil
		e.next = e.advance()
		if goexit {
			// Returning would make iter.Pull re-raise the Goexit on
			// the dispatcher; nothing resumes this coroutine again.
			yield(struct{}{})
		}
	}()
	p.fn(p)
	returned = true
}

// park runs the dispatch loop on p's coroutine. If p itself is next it
// returns at once; otherwise it hands the next process to the
// dispatcher and yields until p is dispatched again.
func (p *Proc) park() {
	e := p.env
	e.current = nil
	next := e.advance()
	if next == p {
		e.current = p
		return
	}
	e.next = next
	p.yield(struct{}{})
}

// advance is the dispatch loop. It pops events due at or before
// e.bound in (at, seq) order, skipping stale wakeups and running
// deferred calls inline, and returns the next process to run. It
// returns nil when the run must go back to its caller: nothing is due,
// Stop was called, or a process or deferred call failed. It runs on
// the dispatcher or on the coroutine of the process that parks or
// finishes.
func (e *Env) advance() *Proc {
	for len(e.events) > 0 && !e.stopped && e.failure == nil {
		if e.events[0].at > e.bound {
			return nil
		}
		ev := e.events.pop()
		if ev.fn == nil && (ev.proc.done || ev.proc.gen != ev.gen) {
			continue // stale wakeup for a finished or reused process
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.dispatched++
		if e.dispatchHook != nil {
			e.dispatchHook(ev.at, ev.seq, ev.proc)
		}
		if ev.fn != nil {
			e.call(ev.at, ev.fn)
			continue
		}
		return ev.proc
	}
	return nil
}

// call runs one deferred call, turning a panic into the run's failure
// so it surfaces from Run like a process panic does.
func (e *Env) call(at Time, fn func()) {
	e.inCall = true
	defer func() {
		e.inCall = false
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			n := runtime.Stack(buf, false)
			e.failure = fmt.Errorf("sim: deferred call at %v panicked: %v\n%s", at, r, buf[:n])
		}
	}()
	fn()
}

// runTo dispatches events due at or before bound. The calling
// goroutine is the dispatcher: it resumes each next process until one
// parks or finishes with nothing left to run within bound (or Stop or
// a failure ends the run).
func (e *Env) runTo(bound Time) {
	e.bound = bound
	next := e.advance()
	for next != nil {
		e.current, e.next = next, nil
		next.resume()
		next = e.next
	}
}

// Sleep suspends the process for d of virtual time. A non-positive d
// yields the processor: the process is rescheduled at the current time
// behind every event already queued for it.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p, p.env.now.Add(d))
	p.park()
}

// Yield reschedules the process at the current virtual time, letting
// any other runnable process at this instant execute first.
func (p *Proc) Yield() { p.Sleep(0) }

// Run dispatches events until none remain or Stop is called. It
// returns an error if a process panicked, or if processes remain
// parked on wait queues with no pending event (a deadlock).
func (e *Env) Run() error { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil dispatches events with time ≤ deadline. Events beyond the
// deadline stay queued; the clock is left at the last dispatched
// event (or the deadline if nothing ran past it).
func (e *Env) RunUntil(deadline Time) error {
	e.stopped = false
	e.runTo(deadline)
	switch {
	case e.failure != nil:
		return e.failure
	case e.stopped:
		return nil
	case len(e.events) > 0: // the next event lies beyond the deadline
		e.now = deadline
		return nil
	case e.waiting > 0:
		return fmt.Errorf("sim: deadlock at %v: %d process(es) parked forever: %v",
			e.now, e.waiting, e.waiterNames())
	}
	return nil
}

// maxWaiterNames bounds how many parked processes a deadlock or
// diagnostic report lists (and how much sorting work building the
// report does).
const maxWaiterNames = 40

// waiterNames lists the parked processes by scanning the Proc-resident
// wait flags — nothing is maintained on the Wait/Wake hot path. The
// report holds the lexicographically first maxWaiterNames entries in
// sorted order; beyond that, work is capped with a bounded insertion
// rather than a full sort.
func (e *Env) waiterNames() []string {
	names := make([]string, 0, min(e.waiting, maxWaiterNames))
	total := 0
	for _, p := range e.procs {
		if !p.waiting {
			continue
		}
		total++
		name := p.name + " @ " + p.waitQ.label()
		i := sort.SearchStrings(names, name)
		switch {
		case len(names) < maxWaiterNames:
			names = append(names, "")
			copy(names[i+1:], names[i:])
			names[i] = name
		case i < maxWaiterNames:
			copy(names[i+1:], names[i:maxWaiterNames-1])
			names[i] = name
		}
	}
	if total > maxWaiterNames {
		names = append(names, "...")
	}
	return names
}

// Stop makes Run return after the current event completes. Parked
// processes are abandoned: their coroutines stay suspended until a
// later Run dispatches them, which is fine for one-shot simulations.
//
// Stop must be called from inside a running process (or a CallAt
// function); calling it from anywhere else would race the dispatch
// loop, so it panics instead.
func (e *Env) Stop() {
	if e.current == nil && !e.inCall {
		panic("sim: Stop called from outside a running process; " +
			"call it from process or CallAt context so the run loop observes it safely")
	}
	e.stopped = true
}

// Stopped reports whether Stop has been called during the current Run.
func (e *Env) Stopped() bool { return e.stopped }

// WaitQueue is a FIFO queue of parked processes. Processes enter with
// Wait and are released, in order, by Wake or WakeAll. It is the
// primitive beneath Mutex and Cond.
type WaitQueue struct {
	name string
	lab  Labeler
	ps   []*Proc
}

// Labeler renders a wait queue's label on demand. A queue with a
// labeler formats nothing on the Wait/Wake path: WaitLabel is called
// only when an Observer is attached (ProcBlock, at Wait time) or a
// deadlock or WaitingProcs report is rendered (with the labeler's
// state at that moment). Implement it on a pointer type, so installing
// one stores a pointer and allocates nothing.
type Labeler interface {
	WaitLabel() string
}

// label is the queue's current label.
func (q *WaitQueue) label() string {
	if q.lab != nil {
		return q.lab.WaitLabel()
	}
	return q.name
}

// NewWaitQueue returns a queue labelled name (used in deadlock
// reports).
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{name: name} }

// Len reports the number of parked processes.
func (q *WaitQueue) Len() int { return len(q.ps) }

// Wait parks p until another process wakes it. The wakeup happens at
// the waker's current virtual time.
func (q *WaitQueue) Wait(p *Proc) {
	q.ps = append(q.ps, p)
	p.waiting = true
	p.waitQ = q
	p.env.waiting++
	if p.env.obs != nil {
		p.env.obs.ProcBlock(p.name, q.label(), p.env.now)
	}
	p.park()
}

// Wake releases up to n parked processes (all of them if n < 0),
// scheduling each at the current virtual time. It returns how many
// were released.
func (q *WaitQueue) Wake(n int) int {
	if n < 0 || n > len(q.ps) {
		n = len(q.ps)
	}
	for i := 0; i < n; i++ {
		p := q.ps[i]
		p.waiting = false
		p.waitQ = nil
		p.env.waiting--
		p.env.schedule(p, p.env.now)
		if p.env.obs != nil {
			p.env.obs.ProcWake(p.name, p.env.now)
		}
	}
	q.ps = q.ps[:copy(q.ps, q.ps[n:])]
	return n
}

// WakeAll releases every parked process.
func (q *WaitQueue) WakeAll() int { return q.Wake(-1) }

// Mutex is a FIFO mutual-exclusion lock for simulated processes.
type Mutex struct {
	held bool
	q    WaitQueue
}

// NewMutex returns an unlocked mutex labelled name.
func NewMutex(name string) *Mutex { return &Mutex{q: WaitQueue{name: "mutex " + name}} }

// Lock blocks p until the mutex is available, granting it in FIFO
// order.
func (m *Mutex) Lock(p *Proc) {
	for m.held {
		m.q.Wait(p)
	}
	m.held = true
}

// TryLock acquires the mutex if it is free and reports whether it did.
func (m *Mutex) TryLock() bool {
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Unlock releases the mutex and wakes the first waiter, if any.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: Unlock of unlocked Mutex")
	}
	m.held = false
	m.q.Wake(1)
}

// Held reports whether the mutex is currently held.
func (m *Mutex) Held() bool { return m.held }

// WaitingProcs lists processes parked on wait queues right now, with
// their queue labels (diagnostics).
func (e *Env) WaitingProcs() []string { return e.waiterNames() }

// SetName labels the queue for deadlock and diagnostic reports,
// replacing any Labeler.
func (q *WaitQueue) SetName(name string) { q.name, q.lab = name, nil }

// SetLabeler makes l render the queue's label from now on (see
// Labeler). A nil l falls back to the name.
func (q *WaitQueue) SetLabeler(l Labeler) { q.lab = l }

// SetLabeler makes l render the mutex's wait-queue label — the whole
// label, with no "mutex " prefix added.
func (m *Mutex) SetLabeler(l Labeler) { m.q.lab = l }
