package engine

import (
	"crest/internal/layout"
	"crest/internal/observe"
	"crest/internal/sim"
	"crest/internal/trace"
)

// Attach wires obs into one run: the scheduler of env — or, when env
// belongs to a partitioned sim.World, every partition's scheduler — the
// fabric's lanes and db. Each partition records into its own shard of
// every observer, written lock-free by the partition's worker and
// merged deterministically at snapshot time, so an observed run may
// execute on any number of workers. The trace recorder also observes
// the schedulers, and the metrics registry binds to their clocks.
func (db *DB) Attach(env *sim.Env, obs observe.Set) {
	w := env.World()
	parts := 1
	if w != nil {
		parts = w.Parts()
	}
	for i := 0; i < parts; i++ {
		penv := env
		if w != nil {
			penv = w.Env(i)
		}
		o := obs.Shard(i, parts)
		if o.Trace != nil {
			penv.SetObserver(o.Trace)
		}
		o.Metrics.BindEnv(penv)
	}
	db.Fabric.SetObservers(obs)
	db.observe(obs)
}

// The hooks below are the engines' only path to the observers: one
// method per protocol event, each fanning out to every observer that
// hears it. With every observer off a hook costs a few nil checks: every
// observer method is a no-op on a nil receiver.

// LockAcquired reports remote cell locks won on a record.
func (db *DB) LockAcquired(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	db.Obs.Trace.LockAcquire(p.Now(), trace.SpanOf(p), table, key, mask)
	db.Obs.Why.OnLock(p, table, key, mask)
	db.met.LockAcquires.Inc()
}

// LockConflict reports a lock CAS lost to another holder, or a read
// that found the cells locked.
func (db *DB) LockConflict(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	db.Obs.Trace.Conflict(p.Now(), trace.SpanOf(p), table, key, mask)
	db.Obs.Why.LockFail(p, table, key, mask)
	db.met.LockConflicts.Inc()
}

// ValidationConflict reports a validation check failing on the given
// cells, which changed after version since.
func (db *DB) ValidationConflict(p *sim.Proc, table layout.TableID, key layout.Key, mask, since uint64) {
	db.Obs.Trace.Conflict(p.Now(), trace.SpanOf(p), table, key, mask)
	db.Obs.Why.ValidationFail(p, table, key, mask, since)
	db.met.LockConflicts.Inc()
}

// LockReleased reports remote cell locks released.
func (db *DB) LockReleased(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	db.Obs.Trace.LockRelease(p.Now(), trace.SpanOf(p), table, key, mask)
	db.Obs.Why.OnUnlock(table, key, mask)
}

// CommittedUpdate reports the transaction with why id writer installing
// version ts of the given cells. Report it before the LockReleased of
// the same cells.
func (db *DB) CommittedUpdate(writer uint64, table layout.TableID, key layout.Key, ts, cells uint64) {
	db.Obs.Why.OnUpdate(writer, table, key, ts, cells)
}

// LocalWait reports a coordinator that parked at t0 behind a local
// lock or object held by the transaction with why id holder.
func (db *DB) LocalWait(p *sim.Proc, table layout.TableID, key layout.Key, holder uint64, t0 sim.Time) {
	db.Obs.Why.LocalWait(p, table, key, holder, p.Now().Sub(t0))
	db.Obs.Flight.Wait(p, holder, p.Now().Sub(t0))
}

// DependencyWait reports a coordinator that parked at t0 until the
// transaction with why id dep it read from resolved.
func (db *DB) DependencyWait(p *sim.Proc, dep uint64, t0 sim.Time) {
	db.Obs.Why.DependencyWait(p, dep, p.Now().Sub(t0))
	db.Obs.Flight.Wait(p, dep, p.Now().Sub(t0))
}

// LockWaiters moves the lock-wait depth gauge by delta: +1 as a
// coordinator parks behind a held local lock, -1 as it resumes.
func (db *DB) LockWaiters(delta int64) { db.met.LockWaiters.Add(delta) }

// Backoff reports a coordinator having slept d before retrying.
func (db *DB) Backoff(p *sim.Proc, d sim.Duration) {
	db.Obs.Flight.Backoff(p, d)
}

// Piggyback reports a local transaction reusing remote locks already
// held on its compute node (CREST §5.1).
func (db *DB) Piggyback(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	db.Obs.Trace.LockPiggyback(p.Now(), trace.SpanOf(p), table, key, mask)
	db.met.Piggybacks.Inc()
}

// ENOverflow reports a cell's 16-bit epoch number wrapping.
func (db *DB) ENOverflow(p *sim.Proc, table layout.TableID, key layout.Key, cell int) {
	db.Obs.Trace.ENOverflow(p.Now(), trace.SpanOf(p), table, key, cell)
}
