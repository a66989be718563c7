package main

import (
	"fmt"

	"crest/internal/bench"
	"crest/internal/rdma"
)

// record is a run's virtual-time outcome: every field is a pure
// function of the seed and the configuration, so two runs of one seed
// must produce equal records whatever the host, the worker count or
// the attached observers.
type record struct {
	Events      uint64
	Attempts    uint64
	Commits     uint64
	Aborts      uint64
	FalseAborts uint64
	KOPS        float64
	AbortRate   float64
	P50, P99    float64
	P999        float64
	ExecUs      float64
	ValidateUs  float64
	CommitUs    float64
	Verbs       rdma.Stats
	// Partitioned runs only.
	Windows    uint64
	WidthAvgNs float64
	CrossVerbs uint64
}

func recordOf(res bench.Result) record {
	r := record{
		Events:      res.Events,
		Attempts:    res.Committed + res.Aborted,
		Commits:     res.Committed,
		Aborts:      res.Aborted,
		FalseAborts: res.FalseAborts,
		KOPS:        res.ThroughputKOPS(),
		AbortRate:   res.AbortRate(),
		P50:         res.Lat.P50(),
		P99:         res.Lat.P99(),
		P999:        res.Lat.P999(),
		ExecUs:      res.Phases.AvgExec(),
		ValidateUs:  res.Phases.AvgValidate(),
		CommitUs:    res.Phases.AvgCommit(),
		Verbs:       res.Verbs,
	}
	if ri := res.Runtime; ri != nil {
		r.Windows = ri.Sim.Windows
		r.WidthAvgNs = ri.Sim.WidthAvg()
		for _, c := range ri.Cross {
			r.CrossVerbs += c.Total()
		}
	}
	return r
}

// reference is a pinned virtual outcome, in the crestbench CLI's
// printed precision.
type reference struct {
	seed           int64
	kops, abortPct string
	p50, p99, p999 string
	events         uint64
}

// smallbankReference is the output of
//
//	crestbench -run -quick -system crest -workload smallbank -theta 0.99 -coords 240 -duration 20ms -warmup 4ms
//
// which smallbank-hot at seed 1 must reproduce exactly: the benchmark
// drives the same code path users run.
var smallbankReference = reference{
	seed: 1, kops: "1571.8", abortPct: "46.1",
	p50: "7.7", p99: "2792.1", p999: "7997.6", events: 1037199,
}

// check reports how r differs from the reference, or nil.
func (ref reference) check(r record) error {
	got := reference{
		seed:     ref.seed,
		kops:     fmt.Sprintf("%.1f", r.KOPS),
		abortPct: fmt.Sprintf("%.1f", 100*r.AbortRate),
		p50:      fmt.Sprintf("%.1f", r.P50),
		p99:      fmt.Sprintf("%.1f", r.P99),
		p999:     fmt.Sprintf("%.1f", r.P999),
		events:   r.Events,
	}
	if got != ref {
		return fmt.Errorf("virtual outcome %+v differs from the pinned crestbench reference %+v", got, ref)
	}
	return nil
}
