package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"crest/internal/sim"
)

// referenceSpec is the repository's reference run,
//
//	crestbench -run -quick -system crest -workload smallbank -theta 0.99 -coords 240 -duration 20ms -warmup 4ms
//
// CREST under SmallBank θ=0.99: hot-key lock waits, admission waits and
// retries, which makes its dispatch sequence the most sensitive one the
// simulator has.
var referenceSpec = RunSpec{
	System:       CREST,
	Workload:     SmallBankSpec(0.99),
	Coordinators: 240,
	MemNodes:     2,
	Duration:     20 * sim.Millisecond,
	Warmup:       4 * sim.Millisecond,
	Seed:         1,
	Profile:      "quick",
}

// The reference run's pinned virtual outcome: its dispatch count, its
// headline figures in the CLI's printed precision, and the sha256 of
// its full JSON record. Every field is a pure function of the spec, so
// a scheduler or protocol change that moves one event shows here.
const (
	referenceEvents   = 1037199
	referenceHeadline = "kops=1571.8 abort=46.1% p50=7.7 p99=2792.1 p999=7997.6"
	referenceDigest   = "77c430751a3ce04cff48e3a0d9d2b3f3f3adccec4c580dbb91791dfbfefd0303"
)

func TestReferenceRunPinned(t *testing.T) {
	cfg, err := referenceSpec.config(Quick())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRunRecord(referenceSpec, res)
	if rec.Events != referenceEvents {
		t.Errorf("reference run dispatched %d events, pinned %d", rec.Events, referenceEvents)
	}
	headline := fmt.Sprintf("kops=%.1f abort=%.1f%% p50=%.1f p99=%.1f p999=%.1f",
		rec.KOPS, 100*rec.AbortRate, rec.Latency.P50, rec.Latency.P99, rec.Latency.P999)
	if headline != referenceHeadline {
		t.Errorf("reference run printed %q, pinned %q", headline, referenceHeadline)
	}
	js, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	if got := hex.EncodeToString(sum[:]); got != referenceDigest {
		t.Errorf("reference record digest %s, pinned %s\nrecord: %s", got, referenceDigest, js)
	}
}
