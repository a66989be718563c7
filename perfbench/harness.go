package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crest/internal/bench"
	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/trace"
	"crest/internal/workload"
)

// call is one harness call measured from outside: its host timings and
// memory, the exports it wrote, and the harness result.
type call struct {
	wallS  float64 // harness call until every output is written
	setupS float64 // harness call until the event loop starts
	loopS  float64 // the event loop alone (Result.WallMS)
	rssMB  float64 // peak resident memory during the call
	// cpuS is the process's user+system CPU time during the call;
	// stealS is the CPU time the hypervisor took from this machine's
	// CPUs meanwhile (all CPUs, 0 where /proc/stat has no steal).
	cpuS, stealS float64
	// allocBytes and gcCycles are the runtime.MemStats delta around the
	// harness call alone.
	allocBytes uint64
	gcCycles   uint32
	exports    []export
	res        bench.Result
	obs        observers
	rec        record
}

// export is one observer's snapshot-and-write cost.
type export struct {
	module  string // internal module that owns the exporter
	path    string
	seconds float64
	bytes   int64
}

// callOpts selects what a harness call adds to the plain timed run.
type callOpts struct {
	// check turns on the serializability checker and the flight
	// recorder (the correctness pass).
	check bool
	// tr, when set, wraps the generator in the timing wrapper, records
	// spans and captures a CPU profile (the traced run).
	tr *tracer
}

// runCall executes one harness call of workload s at seed and writes
// any exports under outDir. The host is settled first — garbage
// collected, memory returned to the OS and the peak-RSS mark reset —
// so every call starts from the same state a fresh process would.
func runCall(s *spec, seed int64, outDir string, opts callOpts) (call, error) {
	gen := s.gen
	if opts.tr != nil {
		gen = opts.tr.wrap(gen)
	}
	cfg := s.config(seed, gen)
	obs := s.attach(&cfg)
	if opts.check {
		cfg.CheckHistory = true
		if obs.flight == nil {
			obs.flight = flight.NewRecorder(flight.Options{})
			cfg.Flight = obs.flight
		}
	}

	debug.FreeOSMemory() // also collects garbage
	resetPeakRSS()
	cpu0, steal0 := cpuSeconds(), stealSeconds()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if opts.tr != nil {
		if err := pprof.StartCPUProfile(&opts.tr.profile); err != nil {
			return call{}, fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	t0 := time.Now()
	res, err := bench.Run(cfg)
	t1 := time.Now()
	if opts.tr != nil {
		opts.tr.spans.add(spanHarness, spanRun, "harness", t0, t1)
	}
	if err != nil {
		return call{}, fmt.Errorf("%s: harness: %w", s.name, err)
	}
	runtime.ReadMemStats(&m1)
	t2 := time.Now()
	var exports []export
	if s.observed {
		if exports, err = obs.write(outDir, opts.tr); err != nil {
			return call{}, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	t3 := time.Now()
	if opts.tr != nil {
		pprof.StopCPUProfile()
		opts.tr.spans.add(spanRun, 0, "run", t0, t3)
	}

	harnessS := t1.Sub(t0).Seconds()
	c := call{
		wallS:      harnessS + t3.Sub(t2).Seconds(),
		loopS:      res.WallMS / 1e3,
		rssMB:      peakRSSMB(),
		cpuS:       cpuSeconds() - cpu0,
		stealS:     stealSeconds() - steal0,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		exports:    exports,
		res:        res,
		rec:        recordOf(res),
	}
	if opts.check {
		c.obs = obs // kept for the read-back; timed calls drop theirs
	}
	c.setupS = harnessS - c.loopS
	return c, nil
}

// write snapshots every observer and writes its export the way the
// crestbench CLI does: Chrome trace, metrics JSON, why JSON and flight
// JSON, each to its own file.
func (o observers) write(dir string, tr *tracer) ([]export, error) {
	jobs := []struct {
		module, file string
		write        func(io.Writer) error
	}{
		{"trace", "trace.json", func(w io.Writer) error { return trace.WriteChromeTrace(w, o.trace.Snapshot()) }},
		{"metrics", "metrics.json", func(w io.Writer) error { return metrics.WriteJSON(w, o.metrics.Snapshot()) }},
		{"causality", "why.json", func(w io.Writer) error { return causality.WriteJSON(w, o.why.Snapshot()) }},
		{"flight", "flight.json", func(w io.Writer) error { return flight.WriteJSON(w, o.flight.Snapshot()) }},
	}
	out := make([]export, 0, len(jobs))
	for _, j := range jobs {
		path := filepath.Join(dir, j.file)
		t0 := time.Now()
		n, err := writeFile(path, j.write)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		if tr != nil {
			tr.spans.add(tr.spans.newID(), spanRun, j.module+".export", t0, t1)
		}
		out = append(out, export{module: j.module, path: path, seconds: t1.Sub(t0).Seconds(), bytes: n})
	}
	return out, nil
}

// writeFile creates path, hands it to write and returns the bytes
// written.
func writeFile(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	if err := write(cw); err != nil {
		f.Close()
		return 0, err
	}
	return cw.n, f.Close()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the
// current RSS, so the next peakRSSMB reading covers only what follows.
// Where the kernel refuses, the mark stays process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MB (0 if absent).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds is the machine's total steal time from /proc/stat (the
// eighth value of the "cpu" line, in USER_HZ = 100 ticks per second),
// or 0 where it is not reported.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// tracer is the traced run's instrumentation, all of it outside the
// program: the generator timing wrapper, the span log and the CPU
// profile.
type tracer struct {
	spans   *spanLog
	gen     *meteredGen
	profile bytes.Buffer
}

func newTracer() *tracer { return &tracer{spans: newSpanLog()} }

// wrap returns a generator factory whose generators are timed by the
// tracer's wrapper.
func (t *tracer) wrap(gen func() workload.Generator) func() workload.Generator {
	return func() workload.Generator {
		g, m := meter(gen(), t.spans)
		t.gen = m
		return g
	}
}
