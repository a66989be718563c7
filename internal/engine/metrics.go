package engine

import (
	"strconv"

	"crest/internal/metrics"
	"crest/internal/observe"
	"crest/internal/sim"
)

// Metrics is the engine-level instrument bundle. It is a value struct of
// nil-safe instrument handles: on a DB without metrics every field is
// nil and every call through it is a no-op, so the attempt timer and
// the hooks use db.met unconditionally. All three engines share the
// bundle because they share the attempt timer and the abort-reason
// vocabulary.
type Metrics struct {
	// Active tracks transaction attempts currently executing (between
	// BeginAttempt and Done).
	Active *metrics.Gauge
	// LockWaiters tracks coordinators blocked waiting for a local lock
	// (the lock-wait depth: how deep the convoy behind held locks is).
	LockWaiters *metrics.Gauge

	// Attempts counts attempts started; Commits counts attempts that
	// committed; Retries counts failed attempts (each failed attempt is
	// retried by the harness, so the two totals coincide).
	Attempts *metrics.Counter
	Commits  *metrics.Counter
	Retries  *metrics.Counter
	// Aborts breaks failed attempts down by AbortReason (indexed by the
	// reason value); FalseAborts counts the subset whose conflicting
	// transaction touched disjoint cells of the same record.
	Aborts      [AbortWait + 1]*metrics.Counter
	FalseAborts *metrics.Counter

	// LockAcquires counts locks granted (local or remote CAS wins);
	// LockConflicts counts lock attempts that lost to another holder;
	// Piggybacks counts lock grants carried on CREST piggyback messages
	// instead of dedicated round-trips.
	LockAcquires  *metrics.Counter
	LockConflicts *metrics.Counter
	Piggybacks    *metrics.Counter

	// LatencyUs is the committed-attempt latency distribution in virtual
	// microseconds.
	LatencyUs *metrics.Histogram

	// CrossShardTxns counts write attempts whose records span shard
	// groups (they pay the cross-shard prepare round at commit);
	// CrossShardAborts counts the subset that aborted.
	CrossShardTxns   *metrics.Counter
	CrossShardAborts *metrics.Counter
	// ShardActive and ShardCommits break attempts down by home shard
	// group, one labeled series per group. Registered only on sharded
	// topologies so single-group runs export exactly the historical
	// series set.
	ShardActive  []*metrics.Gauge
	ShardCommits []*metrics.Counter
}

// observe installs obs on db and registers the engine instruments in
// obs.Metrics; without a registry the bundle stays disabled (zero).
// Registration is idempotent, so observing one registry twice reuses
// the same handles.
func (db *DB) observe(obs observe.Set) {
	db.Obs, db.met = obs, Metrics{}
	r := obs.Metrics
	if r == nil {
		return
	}
	m := Metrics{
		Active: r.Gauge("crest_txn_active", "",
			"Transaction attempts currently executing."),
		LockWaiters: r.Gauge("crest_txn_lock_waiters", "",
			"Coordinators blocked waiting for a local record lock."),
		Attempts: r.Counter("crest_txn_attempts_total", "",
			"Transaction attempts started."),
		Commits: r.Counter("crest_txn_commits_total", "",
			"Transaction attempts committed."),
		Retries: r.Counter("crest_txn_retries_total", "",
			"Transaction attempts aborted and retried."),
		FalseAborts: r.Counter("crest_txn_false_aborts_total", "",
			"Aborts whose conflicting transaction touched disjoint cells."),
		LockAcquires: r.Counter("crest_lock_acquires_total", "",
			"Record locks granted."),
		LockConflicts: r.Counter("crest_lock_conflicts_total", "",
			"Record lock attempts that lost to another holder."),
		Piggybacks: r.Counter("crest_lock_piggybacks_total", "",
			"Lock grants piggybacked on existing messages (CREST)."),
		LatencyUs: r.Histogram("crest_txn_latency_us", "",
			"Committed-attempt latency in virtual microseconds.", nil),
	}
	for reason := AbortLockFail; reason <= AbortWait; reason++ {
		m.Aborts[reason] = r.Counter("crest_txn_aborts_total",
			`reason="`+reason.String()+`"`,
			"Transaction attempts aborted, by reason.")
	}
	m.CrossShardTxns = r.Counter("crest_txn_cross_shard_total", "",
		"Write attempts whose records span shard groups.")
	m.CrossShardAborts = r.Counter("crest_txn_cross_shard_aborts_total", "",
		"Cross-shard write attempts that aborted.")
	if db.Pool != nil && db.Pool.Shards() > 1 {
		for g := 0; g < db.Pool.Shards(); g++ {
			label := `shard="` + strconv.Itoa(g) + `"`
			m.ShardActive = append(m.ShardActive, r.Gauge(
				"crest_shard_txn_active", label,
				"Attempts currently executing, by home shard group."))
			m.ShardCommits = append(m.ShardCommits, r.Counter(
				"crest_shard_commits_total", label,
				"Committed attempts, by home shard group."))
		}
	}
	db.met = m
}

// beginAttempt records an attempt starting on home shard group.
func (m *Metrics) beginAttempt(shard int) {
	m.Active.Inc()
	m.Attempts.Inc()
	if shard >= 0 && shard < len(m.ShardActive) {
		m.ShardActive[shard].Inc()
	}
}

// crossShard records an attempt discovering it spans shard groups.
func (m *Metrics) crossShard() {
	m.CrossShardTxns.Inc()
}

// fail records an attempt aborting for reason.
func (m *Metrics) fail(reason AbortReason, falseConflict, crossShard bool) {
	m.Retries.Inc()
	if reason >= AbortNone && int(reason) < len(m.Aborts) {
		m.Aborts[reason].Inc()
	}
	if falseConflict {
		m.FalseAborts.Inc()
	}
	if crossShard {
		m.CrossShardAborts.Inc()
	}
}

// done records an attempt finishing; committed attempts contribute
// their latency and their home shard group's commit counter.
func (m *Metrics) done(committed bool, latency sim.Duration, shard int) {
	m.Active.Dec()
	if shard >= 0 && shard < len(m.ShardActive) {
		m.ShardActive[shard].Dec()
	}
	if committed {
		m.Commits.Inc()
		m.LatencyUs.Observe(int64(latency) / int64(sim.Microsecond))
		if shard >= 0 && shard < len(m.ShardCommits) {
			m.ShardCommits[shard].Inc()
		}
	}
}
