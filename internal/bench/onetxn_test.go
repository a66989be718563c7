package bench

import (
	"testing"

	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/sim"
)

// oneTxnVerbs wires every configured observer, not just the trace: the
// why and flight recorders each hold exactly the one committed
// transaction, and the metrics registry counts its commit.
func TestOneTxnVerbsHonoursEveryObserver(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			cfg := shortCfg(system, tinySmallBank)
			cfg.Why = causality.NewRecorder(causality.Options{})
			cfg.Flight = flight.NewRecorder(flight.Options{})
			cfg.Metrics = metrics.NewRegistry(metrics.Options{})
			if _, err := oneTxnVerbs(cfg); err != nil {
				t.Fatal(err)
			}
			if txns := cfg.Why.Snapshot().Txns; len(txns) != 1 || txns[0].State != causality.StateCommitted {
				t.Errorf("why snapshot holds %+v, want one committed txn", txns)
			}
			if txns := cfg.Flight.Snapshot().Txns; len(txns) != 1 || !txns[0].Committed {
				t.Errorf("flight snapshot holds %+v, want one committed txn", txns)
			}
			commits := -1.0
			for _, se := range cfg.Metrics.Snapshot().Series {
				if se.Name == "crest_txn_commits_total" {
					commits = se.Total
				}
			}
			if commits != 1 {
				t.Errorf("crest_txn_commits_total = %v, want 1", commits)
			}
		})
	}
}

// BenchmarkOneTxn measures the host cost of one uncontended SmallBank
// transaction per engine: engine protocol, fabric verbs and
// scheduling, with no lock waits, retries or process switches (the one
// process is always next). Loading the tables and
// warming the cache happen before the timer starts; the timed part is
// b.N transactions in a row on one coordinator.
func BenchmarkOneTxn(b *testing.B) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		b.Run(string(system), func(b *testing.B) {
			spec := Quick().Spec(system, SmallBankSpec(0.99), 1)
			spec.CompNodes = 1
			cfg, err := spec.config(Quick())
			if err != nil {
				b.Fatal(err)
			}
			env, coord, gen, err := oneTxnRig(cfg)
			if err != nil {
				b.Fatal(err)
			}
			aborts := 0
			env.Spawn("one-txn", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					if !coord.Execute(p, gen.Next(p.Rand())).Committed {
						aborts++
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if aborts > 0 {
				b.Fatalf("%d of %d uncontended transactions aborted", aborts, b.N)
			}
		})
	}
}
