package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"crest/internal/sim"
	"crest/internal/trace"
)

// tracedRun executes a short contended run with tracing on and
// returns the Chrome JSON export.
func tracedRun(t *testing.T, system SystemKind, seed int64) ([]byte, *trace.Snapshot) {
	t.Helper()
	rec := trace.NewRecorder(0)
	cfg := shortCfg(system, tinySmallBank)
	cfg.Seed = seed
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snap
}

func TestTraceDeterministicByteIdentical(t *testing.T) {
	a, _ := tracedRun(t, CREST, 11)
	b, _ := tracedRun(t, CREST, 11)
	if !bytes.Equal(a, b) {
		t.Fatal("two runs with the same seed produced different traces")
	}
	c, _ := tracedRun(t, CREST, 12)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceChromeExportAllEngines(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			out, snap := tracedRun(t, system, 3)
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(out, &doc); err != nil {
				t.Fatalf("invalid Chrome JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("no trace events")
			}
			spans := snap.Spans()
			if len(spans) == 0 {
				t.Fatal("no spans reconstructed")
			}
			committed := 0
			for i := range spans {
				if spans[i].Committed {
					committed++
				}
			}
			if committed == 0 {
				t.Fatal("no committed spans in the trace")
			}
		})
	}
}

// TestTraceReconcilesWithTable2 runs exactly one uncontended SmallBank
// transaction per engine and checks that the span's per-phase RTT and
// verb attribution sums to the fabric's own counters — the measurement
// behind Table 2.
func TestTraceReconcilesWithTable2(t *testing.T) {
	for _, system := range []SystemKind{CREST, CRESTBase, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			rec := trace.NewRecorder(0)
			cfg := shortCfg(system, tinySmallBank)
			cfg.Trace = rec
			verbs, err := oneTxnVerbs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spans := rec.Snapshot().Spans()
			if len(spans) != 1 {
				t.Fatalf("spans = %d, want 1", len(spans))
			}
			sv := spans[0]
			if !sv.Committed || len(sv.Attempts) != 1 {
				t.Fatalf("uncontended txn: %+v", sv)
			}
			a := sv.Attempts[0]
			if got, want := uint64(a.TotalRTTs()), verbs.RTTs; got != want {
				t.Errorf("trace RTTs = %d, fabric counted %d", got, want)
			}
			totalVerbs := 0
			for ph := trace.PhaseExec; ph < trace.NumPhases; ph++ {
				totalVerbs += a.Verbs[ph]
			}
			if got, want := uint64(totalVerbs), verbs.Total(); got != want {
				t.Errorf("trace verbs = %d, fabric counted %d", got, want)
			}
			// Every round-trip belongs to a phase that also spent
			// virtual time there. (Net can exceed the phase's wall
			// duration: PostMulti charges each concurrent replica batch
			// its own round-trip while the coordinator waits once.)
			for ph := trace.PhaseExec; ph < trace.NumPhases; ph++ {
				if a.RTT[ph] > 0 && (a.Dur[ph] <= 0 || a.Net[ph] <= 0) {
					t.Errorf("phase %v: %d RTTs but dur %v, net %v", ph, a.RTT[ph], a.Dur[ph], a.Net[ph])
				}
			}
		})
	}
}

// TestProcBlockQueueLabelsPinned pins the wait-queue labels an attached
// scheduler observer receives. CREST's admission/flush queue and
// transaction await queue render their labels lazily, and the rendered
// strings must stay byte-identical to the eagerly formatted ones they
// replaced. (The object mutex never parks anyone in such a run: its
// critical section takes no virtual time. internal/core pins its
// label directly.)
func TestProcBlockQueueLabelsPinned(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.ProcEvents = true
	cfg := shortCfg(CREST, tinySmallBank)
	cfg.Seed = 5
	cfg.Duration = 1 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{`"queue":"obj `, `"queue":"await txn`} {
		if !bytes.Contains(buf.Bytes(), []byte(label)) {
			t.Errorf("trace has no ProcBlock on a %s...\" queue", label)
		}
	}
	const want = "43ad370ea366b0c60d76328001fea1d666e4a49f685dd70f47655aebded0d0a6"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("chrome trace with scheduler events digest %s, pinned %s", got, want)
	}
}
