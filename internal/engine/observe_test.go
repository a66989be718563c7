package engine

import (
	"testing"

	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/observe"
	"crest/internal/sim"
	"crest/internal/trace"
)

// Every observer hook is allocation-free in steady state, both with the
// observers off and with all four live: the hooks sit on the engines'
// lock, validation and commit paths.
func TestObserverHooksZeroAlloc(t *testing.T) {
	env, db := newTestDB(t)
	live := observe.Set{
		Trace:   trace.NewRecorder(32),
		Metrics: metrics.NewRegistry(metrics.Options{}),
		Why:     causality.NewRecorder(causality.Options{Capacity: 32}),
		Flight:  flight.NewRecorder(flight.Options{}),
	}
	hooks := []struct {
		name string
		call func(p *sim.Proc)
	}{
		{"LockAcquired", func(p *sim.Proc) { db.LockAcquired(p, 1, 7, 0b1) }},
		{"LockConflict", func(p *sim.Proc) { db.LockConflict(p, 1, 7, 0b1) }},
		{"ValidationConflict", func(p *sim.Proc) { db.ValidationConflict(p, 1, 7, 0b1, 0) }},
		{"LockReleased", func(p *sim.Proc) { db.LockReleased(p, 1, 7, 0b1) }},
		{"CommittedUpdate", func(p *sim.Proc) { db.CommittedUpdate(3, 1, 7, 99, 0b1) }},
		{"LocalWait", func(p *sim.Proc) { db.LocalWait(p, 1, 7, 3, p.Now()) }},
		{"DependencyWait", func(p *sim.Proc) { db.DependencyWait(p, 3, p.Now()) }},
		{"LockWaiters", func(p *sim.Proc) { db.LockWaiters(1); db.LockWaiters(-1) }},
		{"Backoff", func(p *sim.Proc) { db.Backoff(p, sim.Microsecond) }},
		{"Piggyback", func(p *sim.Proc) { db.Piggyback(p, 1, 7, 0b1) }},
		{"ENOverflow", func(p *sim.Proc) { db.ENOverflow(p, 1, 7, 0) }},
	}
	key := new(int)
	env.Spawn("hooks", func(p *sim.Proc) {
		for _, obs := range []struct {
			name string
			set  observe.Set
		}{{"nil", observe.Set{}}, {"live", live}} {
			db.observe(obs.set)
			// Open a span, a why node and a flight record so every hook
			// has a transaction to charge.
			obs.set.Trace.StartSpan(p, 1, "hooks", key)
			obs.set.Why.Begin(p, 1, "hooks", key)
			obs.set.Flight.Begin(p, 1, 0, "hooks", key)
			for _, h := range hooks {
				// Warm-up: wrap the rings and create the per-record state.
				for i := 0; i < 64; i++ {
					h.call(p)
				}
				if n := testing.AllocsPerRun(200, func() { h.call(p) }); n != 0 {
					t.Errorf("%s observers: %s allocates %.1f/op, want 0", obs.name, h.name, n)
				}
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if live.Trace.Dropped() == 0 || live.Why.Dropped() == 0 {
		t.Fatal("warm-up never wrapped the rings; the steady-state claim is untested")
	}
}
