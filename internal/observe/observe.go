// Package observe bundles the four optional observers of one run — the
// trace recorder, the metrics registry, the causality (why) recorder
// and the flight recorder — so the fabric and the engine take them
// through one seam. Every field is nil-able: a nil observer is off, and
// the zero Set observes nothing.
package observe

import (
	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/trace"
)

// Set is one run's observers.
type Set struct {
	Trace   *trace.Recorder
	Metrics *metrics.Registry
	Why     *causality.Recorder
	Flight  *flight.Recorder
}

// Shard returns the observers partition part of parts records into:
// each observer's partition child (see internal/shard), or the Set
// itself when parts <= 1.
func (s Set) Shard(part, parts int) Set {
	return Set{
		Trace:   s.Trace.Shard(part, parts),
		Metrics: s.Metrics.Shard(part, parts),
		Why:     s.Why.Shard(part, parts),
		Flight:  s.Flight.Shard(part, parts),
	}
}
