package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
)

// referenceChromeTrace is the encoding/json rendering WriteChromeTrace
// must reproduce byte for byte: the export's definition, kept here
// only to check the streaming writer against.
func referenceChromeTrace(w io.Writer, s *Snapshot) error {
	type chromeEvent struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	type chromeTrace struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	cellKey := func(e *Event) map[string]any {
		return map[string]any{"table": int(e.Table), "key": uint64(e.Key), "mask": fmt.Sprintf("0x%x", e.Mask)}
	}

	var evs []chromeEvent
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pidCluster,
		Args: map[string]any{"name": "crest cluster"},
	})
	spans := s.Spans()
	coords := map[uint64]bool{}
	for i := range spans {
		coords[spans[i].Coord] = true
	}
	ids := make([]uint64, 0, len(coords))
	for id := range coords {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pidCluster, Tid: id,
			Args: map[string]any{"name": fmt.Sprintf("coordinator %d", id)},
		})
	}
	for i := range spans {
		sv := &spans[i]
		for j := range sv.Attempts {
			a := &sv.Attempts[j]
			end := a.End
			for _, ps := range a.Slices {
				if ps.End > end {
					end = ps.End
				}
			}
			outcome := "commit"
			if !a.Committed {
				outcome = "abort:" + a.Reason
			}
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("%s #%d", sv.Label, a.N), Cat: "txn", Ph: "X",
				Ts: usTime(a.Start), Dur: usDur(end.Sub(a.Start)), Pid: pidCluster, Tid: sv.Coord,
				Args: map[string]any{
					"span": sv.ID, "txn": sv.Txn, "attempt": a.N,
					"outcome": outcome, "falseConflict": a.False, "rtts": a.TotalRTTs(),
				},
			})
			for _, ps := range a.Slices {
				if ps.Dur() == 0 {
					continue
				}
				evs = append(evs, chromeEvent{
					Name: ps.Phase.String(), Cat: "phase", Ph: "X",
					Ts: usTime(ps.Start), Dur: usDur(ps.Dur()), Pid: pidCluster, Tid: sv.Coord,
					Args: map[string]any{"span": sv.ID, "attempt": a.N},
				})
			}
		}
	}
	for i := range s.Events {
		e := &s.Events[i]
		switch e.Kind {
		case KindRTT:
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("RTT x%d", e.Ops), Cat: "rdma", Ph: "X",
				Ts: usTime(e.At) - usDur(e.Latency), Dur: usDur(e.Latency),
				Pid: pidCluster, Tid: e.Coord,
				Args: map[string]any{
					"span": e.Span, "attempt": e.Attempt, "phase": e.Phase.String(),
					"qp": e.QP, "region": e.Region, "ops": e.Ops, "bytes": e.Bytes,
				},
			})
		case KindConflict:
			args := cellKey(e)
			args["span"] = e.Span
			evs = append(evs, chromeEvent{
				Name: "conflict", Cat: "cc", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidCluster, Tid: e.Coord, Args: args,
			})
		case KindLockAcquire, KindLockPiggyback, KindLockRelease:
			args := cellKey(e)
			args["span"] = e.Span
			evs = append(evs, chromeEvent{
				Name: e.Kind.String(), Cat: "lock", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidCluster, Tid: e.Coord, Args: args,
			})
		case KindENOverflow:
			evs = append(evs, chromeEvent{
				Name: "en-overflow", Cat: "cc", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidCluster, Tid: e.Coord,
				Args: map[string]any{"table": int(e.Table), "key": uint64(e.Key), "cell": e.Cell, "span": e.Span},
			})
		case KindTxnAbort:
			evs = append(evs, chromeEvent{
				Name: "abort:" + e.Reason, Cat: "txn", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidCluster, Tid: e.Coord,
				Args: map[string]any{"span": e.Span, "attempt": e.Attempt, "falseConflict": e.False},
			})
		case KindProcSpawn, KindProcBlock, KindProcWake, KindProcFinish:
			args := map[string]any{"proc": e.Label}
			if e.Reason != "" {
				args["queue"] = e.Reason
			}
			evs = append(evs, chromeEvent{
				Name: e.Kind.String(), Cat: "sim", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidSim, Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(&chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// nastyStrings exercise every escaping rule of encoding/json: quotes
// and backslashes, HTML characters, control characters with and
// without short escapes, U+2028/U+2029, multi-byte runes, invalid UTF-8
// (a lone continuation byte, a truncated sequence at the end, an
// overlong encoding, a surrogate) and the empty string.
var nastyStrings = []string{
	"",
	"plain",
	`q"uo\te`,
	"<script>&amp;</script>",
	"ctl\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f",
	"line\u2028para\u2029end",
	"héllo wörld ✓ 𝄞",
	"bad\x80byte",
	"trunc\xe2\x80",
	"overlong\xc0\xaf",
	"surrogate\xed\xa0\x80",
	"\xff",
}

// allKindsSnapshot has every Kind, at times that give zero, negative,
// fractional and huge timestamps and durations, with labels, reasons and
// proc/queue names drawn from nastyStrings.
func allKindsSnapshot() *Snapshot {
	var evs []Event
	add := func(e Event) {
		e.Seq = uint64(len(evs) + 1)
		evs = append(evs, e)
	}
	for i, str := range nastyStrings {
		coord := uint64(i % 3)
		span := uint64(i + 1)
		base := sim.Time(i) * 1001
		if i == len(nastyStrings)-1 {
			base = math.MaxInt64 / 2
		}
		add(Event{At: base, Kind: KindTxnBegin, Coord: coord, Span: span, Txn: uint64(i) * 7, Attempt: 1, Label: str})
		add(Event{At: base, Kind: KindPhase, Coord: coord, Span: span, Attempt: 1, Phase: PhaseExec})
		add(Event{At: base + 1, Kind: KindVerbIssue, Coord: coord, Span: span, Verb: "READ", QP: i, Region: 2, Bytes: 64})
		add(Event{At: base + 3, Kind: KindVerbComplete, Coord: coord, Span: span, Verb: "READ", QP: i, Region: 2, Bytes: 64, Latency: 2})
		add(Event{At: base + 3, Kind: KindRTT, Coord: coord, Span: span, Attempt: 1, Phase: PhaseExec, QP: i, Region: 2, Ops: i - 2, Bytes: 64, Latency: sim.Duration(2 + i*i*1000)})
		add(Event{At: base + 4, Kind: KindPhase, Coord: coord, Span: span, Attempt: 1, Phase: PhaseLock})
		add(Event{At: base + 5, Kind: KindConflict, Coord: coord, Span: span, Table: layout.TableID(i), Key: layout.Key(1 << 63), Mask: uint64(i) << 60})
		add(Event{At: base + 5, Kind: KindLockAcquire, Coord: coord, Span: span, Table: 1, Key: 2, Mask: 0})
		add(Event{At: base + 5, Kind: KindLockPiggyback, Coord: coord, Span: span, Table: 1, Key: 2, Mask: math.MaxUint64})
		add(Event{At: base + 6, Kind: KindENOverflow, Coord: coord, Span: span, Table: 3, Key: 4, Cell: i - 5})
		add(Event{At: base + 7, Kind: KindTxnAbort, Coord: coord, Span: span, Attempt: 1, Reason: str, False: i%2 == 0})
		add(Event{At: base + 7, Kind: KindPhase, Coord: coord, Span: span, Attempt: 1, Phase: PhaseRelease})
		add(Event{At: base + 9, Kind: KindLockRelease, Coord: coord, Span: span, Table: 1, Key: 2, Mask: 0xabc})
		add(Event{At: base + 9, Kind: KindTxnRetry, Coord: coord, Span: span, Attempt: 2})
		add(Event{At: base + 9, Kind: KindPhase, Coord: coord, Span: span, Attempt: 2, Phase: PhaseValidate})
		add(Event{At: base + 1500, Kind: KindPhase, Coord: coord, Span: span, Attempt: 2, Phase: PhaseLog})
		add(Event{At: base + 1500, Kind: KindPhase, Coord: coord, Span: span, Attempt: 2, Phase: PhaseApply})
		add(Event{At: base + 2001, Kind: KindTxnCommit, Coord: coord, Span: span, Attempt: 2})
		add(Event{At: base, Kind: KindProcSpawn, Label: str})
		add(Event{At: base + 1, Kind: KindProcBlock, Label: str, Reason: str})
		add(Event{At: base + 2, Kind: KindProcBlock, Label: "p", Reason: nastyStrings[(i+1)%len(nastyStrings)]})
		add(Event{At: base + 2, Kind: KindProcWake, Label: str})
		add(Event{At: base + 3, Kind: KindProcFinish, Label: str})
	}
	// A span whose head was evicted and whose clock runs backwards
	// (negative duration), and an event of unknown kind.
	add(Event{At: 50, Kind: KindTxnAbort, Coord: 9, Span: 99, Attempt: 3, Reason: "x"})
	add(Event{At: 40, Kind: KindPhase, Coord: 9, Span: 99, Attempt: 3, Phase: PhaseLog})
	add(Event{At: 10, Kind: KindTxnCommit, Coord: 9, Span: 99, Attempt: 3})
	add(Event{At: 0, Kind: Kind(200), Coord: 9, Span: 98})
	return &Snapshot{Events: evs}
}

func renderBoth(t *testing.T, s *Snapshot) (want, got []byte) {
	t.Helper()
	var a, b bytes.Buffer
	if err := referenceChromeTrace(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, s); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

// firstDiff reports where two renderings part, with some context.
func firstDiff(want, got []byte) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("first difference at byte %d (lengths %d vs %d)\nwant …%q\ngot  …%q",
		i, len(want), len(got), want[lo:min(len(want), i+40)], got[lo:min(len(got), i+40)])
}

func TestChromeTraceMatchesReference(t *testing.T) {
	for name, s := range map[string]*Snapshot{
		"empty":     {},
		"all-kinds": allKindsSnapshot(),
	} {
		want, got := renderBoth(t, s)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: %s", name, firstDiff(want, got))
		}
	}
}

// Random snapshots: random kinds, ids, times and strings built from
// bytes that need every kind of escaping.
func TestChromeTraceMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("ab<>&\"\\\x00\x1f\n\x7f\x80\xbf\xc3\xa9\xe2\x80\xa8\xf0\x9f")
	str := func() string {
		b := make([]byte, rng.Intn(8))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for round := 0; round < 200; round++ {
		evs := make([]Event, rng.Intn(60))
		for i := range evs {
			evs[i] = Event{
				Seq: uint64(i + 1), At: sim.Time(rng.Int63n(1 << uint(rng.Intn(63)))), Kind: Kind(rng.Intn(int(KindProcFinish) + 2)),
				Coord: uint64(rng.Intn(4)), Span: uint64(rng.Intn(5)), Txn: rng.Uint64(), Attempt: rng.Intn(4) - 1,
				Phase: Phase(rng.Intn(int(NumPhases))), Reason: str(), False: rng.Intn(2) == 0,
				Table: layout.TableID(rng.Intn(300)), Key: layout.Key(rng.Uint64()), Mask: rng.Uint64() >> uint(rng.Intn(64)),
				Cell: rng.Intn(20) - 10, QP: rng.Intn(100), Region: rng.Intn(10), Bytes: rng.Intn(1 << 20), Ops: rng.Intn(16),
				Latency: sim.Duration(rng.Int63n(1 << uint(rng.Intn(40)))), Label: str(),
			}
		}
		want, got := renderBoth(t, &Snapshot{Events: evs})
		if !bytes.Equal(want, got) {
			t.Fatalf("round %d: %s", round, firstDiff(want, got))
		}
	}
}

// The float appender matches encoding/json at the format switch points,
// which no integer-nanosecond timestamp reaches.
func TestAppendFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.001, 1e-6, 9.99e-7, 1e-7, -1e-7, 5e-324,
		1.5e-10, 1e20, 999999999999999999999, 1e21, -1e21, 1.7976931348623157e308, 123456.789, 0.1 + 0.2} {
		checkFloat(t, f)
	}
}

func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendFloat(nil, f); !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%v) = %s, json.Marshal = %s", f, got, want)
	}
}

func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got := append(appendString([]byte{'"'}, s), '"')
	if !bytes.Equal(got, want) {
		t.Fatalf("appendString(%q) = %s, json.Marshal = %s", s, got, want)
	}
}

func FuzzChromeString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(checkString)
}

func FuzzChromeFloat(f *testing.F) {
	for _, v := range []float64{0, 1e-7, 1e21, 123.456, -0.005} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("encoding/json rejects non-finite floats; virtual times are finite")
		}
		checkFloat(t, v)
	})
}

// failingWriter accepts limit bytes, then fails every write; it counts
// the writes attempted after the first failure.
type failingWriter struct {
	limit, n   int
	failed     bool
	afterwards int
}

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.afterwards++
		return 0, errWriterFull
	}
	if w.n+len(p) > w.limit {
		w.failed = true
		return 0, errWriterFull
	}
	w.n += len(p)
	return len(p), nil
}

// A write error stops the export: it is returned, and nothing is
// written after it, whether it hits the first write or one mid-stream.
func TestChromeTraceReturnsFirstWriteError(t *testing.T) {
	s := allKindsSnapshot()
	for len(s.Events) < 4000 {
		s.Events = append(s.Events, s.Events...)
	}
	for _, limit := range []int{0, 100 << 10} {
		w := &failingWriter{limit: limit}
		if err := WriteChromeTrace(w, s); !errors.Is(err, errWriterFull) {
			t.Fatalf("limit %d: err = %v, want %v", limit, err, errWriterFull)
		}
		if !w.failed || w.afterwards != 0 {
			t.Fatalf("limit %d: failed %v, %d writes after the failure", limit, w.failed, w.afterwards)
		}
	}
}

// benchSnapshot is a synthetic observed run: n spans on 64
// coordinators, each one aborted and one committed attempt with phase
// transitions, RTTs, lock traffic and a conflict.
func benchSnapshot(n int) *Snapshot {
	var evs []Event
	add := func(e Event) {
		e.Seq = uint64(len(evs) + 1)
		evs = append(evs, e)
	}
	for i := 0; i < n; i++ {
		c, sp, t := uint64(i%64), uint64(i+1), sim.Time(i)*2500
		add(Event{At: t, Kind: KindTxnBegin, Coord: c, Span: sp, Attempt: 1, Label: "ycsb"})
		for a := 1; a <= 2; a++ {
			t += 100
			if a == 2 {
				add(Event{At: t, Kind: KindTxnRetry, Coord: c, Span: sp, Attempt: 2})
			}
			for ph := PhaseExec; ph <= PhaseApply; ph++ {
				add(Event{At: t, Kind: KindPhase, Coord: c, Span: sp, Attempt: a, Phase: ph})
				t += 1789
				add(Event{At: t, Kind: KindRTT, Coord: c, Span: sp, Attempt: a, Phase: ph, QP: i % 48, Region: 3, Ops: 2, Bytes: 128, Latency: 1789})
				add(Event{At: t, Kind: KindLockAcquire, Coord: c, Span: sp, Table: 1, Key: layout.Key(i * 7), Mask: 0x3})
			}
			if a == 1 {
				add(Event{At: t, Kind: KindConflict, Coord: c, Span: sp, Table: 1, Key: layout.Key(i * 7), Mask: 0x1})
				add(Event{At: t, Kind: KindTxnAbort, Coord: c, Span: sp, Attempt: 1, Reason: "lock-conflict"})
			}
		}
		add(Event{At: t, Kind: KindTxnCommit, Coord: c, Span: sp, Attempt: 2})
	}
	return &Snapshot{Events: evs}
}

func BenchmarkWriteChromeTrace(b *testing.B) {
	s := benchSnapshot(2000)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}
