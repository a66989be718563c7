package main

import (
	"fmt"
	"io"
)

// report prints the workload's outcome for a reader: every metric with
// its unit, spread or sample count, the span totals of a traced run,
// and every failed check.
func (o *outcome) report(w io.Writer) {
	kind := "end-to-end"
	if o.traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (seed %d): %s ==\n", o.spec.name, o.seed, kind)
	for _, m := range o.metrics {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", m.name, m.value, m.unit)
		switch {
		case m.n > 0:
			fmt.Fprintf(w, "  median of %d, quartiles [%.6g, %.6g]", m.n, m.q1, m.q3)
		case m.samples > 0:
			fmt.Fprintf(w, "  %d commits, %d beyond", m.samples, m.beyond)
		}
		fmt.Fprintln(w)
	}
	for _, s := range o.spans {
		fmt.Fprintf(w, "  span %-22s %8d calls %10.4f s  self %10.4f s\n", s.Name, s.Count, s.Seconds, s.SelfSeconds)
	}
	for _, e := range o.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", o.correct(), o.attempted, o.failed())
}
