package bench

import (
	"fmt"

	"crest/internal/engine"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/workload"
)

// oneTxnRig loads the configured workload and returns a fresh
// environment with one coordinator on a warmed compute node, alone in
// the system so nothing contends with it, and the generator that feeds
// it.
func oneTxnRig(cfg Config) (*sim.Env, engine.Coordinator, workload.Generator, error) {
	cfg = cfg.WithDefaults()
	gen := cfg.Workload()
	env := sim.NewEnv(cfg.Seed)
	fabric := rdma.NewFabric(env, cfg.Params)
	pool := memnode.NewPool(fabric, cfg.MemNodes, PoolBytes(gen.Tables(), 1), cfg.Replicas)
	db := engine.NewDB(pool)
	db.Attach(env, cfg.observers())
	sys, err := NewSystem(cfg.System, db)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, def := range gen.Tables() {
		sys.CreateTable(def.Schema, def.Capacity)
	}
	gen.Load(sys.Load)
	if err := sys.FinishLoad(); err != nil {
		return nil, nil, nil, err
	}
	node := sys.NewComputeNode(0)
	node.WarmCache()
	return env, node.NewCoordinator(0), gen, nil
}

// oneTxnVerbs executes exactly one transaction on oneTxnRig's
// coordinator and returns the verbs that attempt issued — the
// measurement behind Table 2.
func oneTxnVerbs(cfg Config) (rdma.Stats, error) {
	env, coord, gen, err := oneTxnRig(cfg)
	if err != nil {
		return rdma.Stats{}, err
	}
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
