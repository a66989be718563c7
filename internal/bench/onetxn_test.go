package bench

import (
	"testing"

	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
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
