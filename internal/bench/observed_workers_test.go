package bench

import (
	"bytes"
	"reflect"
	"testing"

	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
)

// observedArtifacts is everything a fully observed run exports: the
// rendered bytes of each observer plane plus the deterministic fields
// of the run itself.
type observedArtifacts struct {
	res     Result
	chrome  []byte
	metJSON []byte
	metCSV  []byte
	metProm []byte
	whyDOT  []byte
	whyJSON []byte
	flJSON  []byte
	flTail  []byte
}

// runObserved executes the canonical partitioned configuration with all
// four observers attached at the given worker count and renders every
// export.
func runObserved(t *testing.T, system SystemKind, workers int) observedArtifacts {
	t.Helper()
	return runObservedCfg(t, observedCfg(system, workers))
}

// observedCfg is the canonical partitioned configuration: three shard
// groups under modulo placement.
func observedCfg(system SystemKind, workers int) Config {
	cfg := shardedCfg(system, 3, "modulo")
	cfg.Workers = workers
	return cfg
}

// runObservedCfg runs cfg with all four observers attached and renders
// every export.
func runObservedCfg(t *testing.T, cfg Config) observedArtifacts {
	t.Helper()
	rec := trace.NewRecorder(0)
	reg := metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
	why := causality.NewRecorder(causality.Options{})
	fl := flight.NewRecorder(flight.Options{})
	cfg.Trace = rec
	cfg.Metrics = reg
	cfg.Why = why
	cfg.Flight = fl
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := observedArtifacts{res: res}
	var buf bytes.Buffer
	render := func(name string, f func() error) []byte {
		buf.Reset()
		if err := f(); err != nil {
			t.Fatalf("rendering %s: %v", name, err)
		}
		return append([]byte(nil), buf.Bytes()...)
	}
	tsnap := rec.Snapshot()
	a.chrome = render("chrome trace", func() error { return trace.WriteChromeTrace(&buf, tsnap) })
	msnap := reg.Snapshot()
	a.metJSON = render("metrics json", func() error { return metrics.WriteJSON(&buf, msnap) })
	a.metCSV = render("metrics csv", func() error { return metrics.WriteCSV(&buf, msnap) })
	a.metProm = render("metrics prom", func() error { return metrics.WritePrometheus(&buf, msnap) })
	wsnap := why.Snapshot()
	a.whyDOT = render("why dot", func() error { return causality.WriteDOT(&buf, wsnap) })
	a.whyJSON = render("why json", func() error { return causality.WriteJSON(&buf, wsnap) })
	fsnap := fl.Snapshot()
	a.flJSON = render("flight json", func() error { return flight.WriteJSON(&buf, fsnap) })
	a.flTail = render("flight tail", func() error { return flight.WriteTail(&buf, fsnap, 3) })
	return a
}

// The parallel-observability contract: a fully observed partitioned run
// (trace + metrics + why + flight) is byte-identical at every worker
// count. The recorders shard per partition and merge deterministically,
// so neither the schedule nor any rendered export may depend on the
// thread count.
func TestObservedPartitionedByteIdenticalAcrossWorkers(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			base := runObserved(t, system, 1)
			if base.res.Committed == 0 {
				t.Fatal("no commits on the observed partitioned run")
			}
			for _, workers := range []int{2, 8} {
				got := runObserved(t, system, workers)
				if got.res.Events != base.res.Events || !reflect.DeepEqual(got.res.Run, base.res.Run) {
					t.Fatalf("workers=%d changed the observed schedule: %d vs %d events",
						workers, got.res.Events, base.res.Events)
				}
				for _, d := range []struct {
					name       string
					want, have []byte
				}{
					{"chrome trace", base.chrome, got.chrome},
					{"metrics json", base.metJSON, got.metJSON},
					{"metrics csv", base.metCSV, got.metCSV},
					{"metrics prom", base.metProm, got.metProm},
					{"why dot", base.whyDOT, got.whyDOT},
					{"why json", base.whyJSON, got.whyJSON},
					{"flight json", base.flJSON, got.flJSON},
					{"flight tail", base.flTail, got.flTail},
				} {
					if !bytes.Equal(d.want, d.have) {
						t.Errorf("workers=%d: %s export differs from workers=1 (%d vs %d bytes)",
							workers, d.name, len(d.have), len(d.want))
					}
				}
			}
		})
	}
}

// Observation must not perturb the partitioned schedule: the fully
// observed run dispatches exactly the events and fabric traffic of the
// unobserved one, at any worker count.
func TestObservedPartitionedMatchesUnobservedSchedule(t *testing.T) {
	plain := runWorkers(t, CREST, 1, false)
	for _, workers := range []int{1, 8} {
		got := runObserved(t, CREST, workers)
		if got.res.Events != plain.Events {
			t.Fatalf("observers at workers=%d changed the schedule: %d vs %d events",
				workers, got.res.Events, plain.Events)
		}
		if got.res.Verbs != plain.Verbs {
			t.Fatalf("observers at workers=%d changed fabric traffic:\n%+v\nvs\n%+v",
				workers, got.res.Verbs, plain.Verbs)
		}
		if !reflect.DeepEqual(got.res.Run, plain.Run) {
			t.Fatalf("observers at workers=%d changed the measured aggregate:\n%+v\nvs\n%+v",
				workers, got.res.Run, plain.Run)
		}
	}
}

// Runtime introspection sanity on a fully observed partitioned run: the
// schedule-derived counters reconcile with the run (every dispatched
// event belongs to exactly one partition; cross-partition sends equal
// receptions; windows respect the lookahead).
func TestRuntimeStatsReconcile(t *testing.T) {
	got := runObserved(t, CREST, 2)
	ri := got.res.Runtime
	if ri == nil || ri.Sim == nil {
		t.Fatal("partitioned run returned no runtime introspection")
	}
	rs := ri.Sim
	if rs.Parts != 3 || ri.Workers != 2 {
		t.Fatalf("topology mismatch: parts=%d workers=%d", rs.Parts, ri.Workers)
	}
	if rs.Windows == 0 {
		t.Fatal("no windows recorded")
	}
	if avg := rs.WidthAvg(); avg <= 0 || sim.Duration(avg) > rs.Lookahead {
		t.Fatalf("window width avg %.1f out of (0, lookahead=%d]", avg, rs.Lookahead)
	}
	var events, sent, injected uint64
	for _, ps := range rs.PartStats {
		events += ps.Events
		sent += ps.Sent
		injected += ps.Injected
		if ps.Injected > 0 && ps.MailboxHWM == 0 {
			t.Fatalf("partition %d injected %d messages but mailbox HWM is 0", ps.Part, ps.Injected)
		}
	}
	if events != got.res.Events {
		t.Fatalf("per-partition events sum %d != run events %d", events, got.res.Events)
	}
	if sent != injected {
		t.Fatalf("cross-partition sends %d != injections %d", sent, injected)
	}
	if len(ri.Cross) != rs.Parts {
		t.Fatalf("cross-lane stats for %d lanes, want %d", len(ri.Cross), rs.Parts)
	}
	var cross uint64
	for _, st := range ri.Cross {
		cross += st.Total()
	}
	if cross == 0 {
		t.Fatal("modulo placement on 3 groups produced no cross-partition verbs")
	}
}
