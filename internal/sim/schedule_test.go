package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// The digests below pin the complete dispatch sequence — every
// (time, seq, process name) the scheduler hands control to, plus the
// clock and error after each run call — of one mixed program per
// executor. Any change to the dispatch loop that reorders, adds or
// drops a single event changes them; re-pin only with a declared
// schedule change.
const (
	mixedEnvDigest   = "cd5413a16c6f39ae143406f86b1fa401d3217686cde31cbc7fde30c1b4fed274"
	mixedWorldDigest = "0b83d122ade207c3058641b8828917ea929341dc8f8773a6c0f65dd01e74b78f"
)

// schedLog hashes dispatches and run-call outcomes as they happen.
type schedLog struct{ h hash.Hash }

func newSchedLog() *schedLog { return &schedLog{h: sha256.New()} }

func (l *schedLog) dispatch(at Time, seq uint64, p *Proc) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(at))
	binary.LittleEndian.PutUint64(b[8:], seq)
	l.h.Write(b[:])
	name := "call"
	if p != nil {
		name = p.name
	}
	l.h.Write([]byte(name))
	l.h.Write([]byte{0})
}

func (l *schedLog) note(format string, args ...any) {
	fmt.Fprintf(l.h, format+"\n", args...)
}

func (l *schedLog) sum() string { return hex.EncodeToString(l.h.Sum(nil)) }

// mixedProgram spawns, into e, processes that exercise every way
// control changes hands: Sleep, Yield, Suspend with a Resume from a
// deferred call, WaitQueue and Mutex handoffs, a Spawn from inside a
// process, and processes exiting while others are still runnable.
// tag prefixes process names so partitions stay distinguishable.
func mixedProgram(e *Env, tag string) {
	mu := NewMutex(tag + "mu")
	q := NewWaitQueue(tag + "q")
	shared := 0
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("%sw%d", tag, i), func(p *Proc) {
			for r := 0; r < 12; r++ {
				p.Sleep(Duration(1 + p.Rand().Int63n(700)))
				mu.Lock(p)
				shared++
				if shared%3 == 0 {
					p.Yield() // hold the mutex across a yield
				}
				mu.Unlock()
				switch (i + r) % 4 {
				case 0:
					p.Yield()
				case 1:
					if q.Len() < 2 {
						q.Wait(p)
					} else {
						q.Wake(1)
					}
				case 2:
					env := p.Env()
					env.CallAt(p.Now().Add(Duration(50+p.Rand().Int63n(200))), func() {
						env.Resume(p, env.Now().Add(25))
					})
					p.Suspend()
				case 3:
					if r%6 == 3 {
						p.Env().Spawn(fmt.Sprintf("%sw%d.child%d", tag, i, r), func(c *Proc) {
							c.Sleep(Duration(c.Rand().Int63n(300)))
							q.WakeAll()
							c.Yield()
						})
					}
				}
			}
			q.WakeAll() // leave nobody parked behind an exited worker
		})
	}
	// Two processes wake at the same instant and exit; the first exits
	// while the second is runnable.
	for _, n := range []string{"shortA", "shortB"} {
		e.Spawn(tag+n, func(p *Proc) { p.Sleep(10) })
	}
	e.Spawn(tag+"sweeper", func(p *Proc) {
		for r := 0; r < 40; r++ {
			p.Sleep(500)
			q.WakeAll()
		}
	})
}

func TestMixedScheduleDigestEnv(t *testing.T) {
	log := newSchedLog()
	e := NewEnv(11)
	e.dispatchHook = log.dispatch
	mixedProgram(e, "")
	// Run to a deadline, resume, stop from a deferred call, resume
	// again and drain.
	err := e.RunUntil(3 * Time(Microsecond))
	log.note("until now=%d err=%v live=%d", e.Now(), err, e.Live())
	e.CallAt(e.Now().Add(2*Microsecond), func() { e.Stop() })
	err = e.Run()
	log.note("stop now=%d err=%v live=%d stopped=%t", e.Now(), err, e.Live(), e.Stopped())
	err = e.RunUntil(e.Now().Add(1500))
	log.note("until now=%d err=%v live=%d", e.Now(), err, e.Live())
	err = e.Run()
	log.note("drain now=%d err=%v live=%d events=%d", e.Now(), err, e.Live(), e.Dispatched())
	if err != nil {
		t.Fatal(err)
	}
	if e.Live() != 0 {
		t.Fatalf("%d processes still live after drain", e.Live())
	}
	if got := log.sum(); got != mixedEnvDigest {
		t.Fatalf("dispatch sequence digest %s, pinned %s", got, mixedEnvDigest)
	}
}

func TestMixedScheduleDigestWorld(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const parts = 4
			const lookahead = 2 * Microsecond
			w := NewWorld(11, parts, lookahead)
			w.SetWorkers(workers)
			logs := make([]*schedLog, parts)
			for i := 0; i < parts; i++ {
				logs[i] = newSchedLog()
				e := w.Env(i)
				e.dispatchHook = logs[i].dispatch
				mixedProgram(e, fmt.Sprintf("p%d.", i))
				// A courier per partition pokes the next partition
				// across the seam: the delivered call wakes the
				// target's wait queue from a deferred call.
				dst := w.Env((i + 1) % parts)
				e.Spawn(fmt.Sprintf("p%d.courier", i), func(p *Proc) {
					for r := 0; r < 10; r++ {
						p.Sleep(Duration(300 + p.Rand().Int63n(900)))
						at := p.Now().Add(lookahead + Duration(p.Rand().Int63n(100)))
						e.Send(dst, at, func() { dst.Spawn("relay", func(c *Proc) { c.Yield() }) })
					}
				})
			}
			sum := func(tag string, err error) string {
				s := fmt.Sprintf("%s err=%v live=%d events=%d", tag, err, w.Live(), w.Dispatched())
				for i := 0; i < parts; i++ {
					s += fmt.Sprintf(" now%d=%d", i, w.Env(i).Now())
				}
				return s
			}
			var notes []string
			err := w.RunUntil(3 * Time(Microsecond))
			notes = append(notes, sum("until", err))
			e2 := w.Env(2)
			e2.CallAt(e2.Now().Add(3*Microsecond), func() { e2.Stop() })
			err = w.Run()
			notes = append(notes, sum("stop", err))
			err = w.Run()
			notes = append(notes, sum("drain", err))
			if err != nil {
				t.Fatal(err)
			}
			if w.Live() != 0 {
				t.Fatalf("%d processes still live after drain", w.Live())
			}
			all := newSchedLog()
			for i, l := range logs {
				all.note("part %d %s", i, l.sum())
			}
			for _, n := range notes {
				all.note("%s", n)
			}
			if got := all.sum(); got != mixedWorldDigest {
				t.Fatalf("dispatch sequence digest %s, pinned %s", got, mixedWorldDigest)
			}
		})
	}
}
