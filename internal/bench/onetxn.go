package bench

import (
	"fmt"

	"crest/internal/engine"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// oneTxnVerbs loads the configured workload, executes exactly one
// transaction on one coordinator with no contention, and returns the
// verbs that attempt issued — the measurement behind Table 2.
func oneTxnVerbs(cfg Config) (rdma.Stats, error) {
	cfg = cfg.WithDefaults()
	gen := cfg.Workload()
	env := sim.NewEnv(cfg.Seed)
	fabric := rdma.NewFabric(env, cfg.Params)
	pool := memnode.NewPool(fabric, cfg.MemNodes, PoolBytes(gen.Tables(), 1), cfg.Replicas)
	db := engine.NewDB(pool)
	db.Attach(env, cfg.observers())
	sys, err := NewSystem(cfg.System, db)
	if err != nil {
		return rdma.Stats{}, err
	}
	for _, def := range gen.Tables() {
		sys.CreateTable(def.Schema, def.Capacity)
	}
	gen.Load(sys.Load)
	if err := sys.FinishLoad(); err != nil {
		return rdma.Stats{}, err
	}
	node := sys.NewComputeNode(0)
	node.WarmCache()
	coord := node.NewCoordinator(0)
	var verbs rdma.Stats
	var attemptErr error
	env.Spawn("one-txn", func(p *sim.Proc) {
		a := coord.Execute(p, gen.Next(p.Rand()))
		if !a.Committed {
			attemptErr = fmt.Errorf("bench: uncontended txn aborted: %v", a.Reason)
		}
		verbs = a.Verbs
	})
	if err := env.Run(); err != nil {
		return rdma.Stats{}, err
	}
	return verbs, attemptErr
}
