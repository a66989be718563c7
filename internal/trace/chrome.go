package trace

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"crest/internal/sim"
)

// Chrome trace_event export (the JSON array format understood by
// Perfetto and chrome://tracing). Each coordinator becomes a thread of
// one "cluster" process; transaction attempts, phase slices and RDMA
// round-trips become nested "X" (complete) events; conflicts, lock
// traffic, aborts and EN overflows become "i" (instant) events.
// Timestamps are virtual microseconds, so the timeline shows exactly
// what the simulator charged, with zero probe distortion.
//
// The document is streamed: each event is appended to one reused
// buffer and written through a bufio.Writer, with no per-event maps
// and no whole-document buffer. The bytes are exactly what
// encoding/json renders for the equivalent structs — fields in the
// order name, cat, ph, ts, dur, pid, tid, s, args with cat, dur, s and
// args omitted when empty, args keys sorted, encoding/json's float
// format and HTML-safe string escaping — so readers of earlier exports
// see no change.

const (
	pidCluster = 1 // coordinator threads
	pidSim     = 2 // simulator scheduling events (opt-in)
)

func usTime(t sim.Time) float64    { return float64(t) / 1e3 }
func usDur(d sim.Duration) float64 { return float64(d) / 1e3 }

// WriteChromeTrace renders the snapshot as Chrome trace_event JSON and
// returns the first write error. Output is deterministic: same
// snapshot, same bytes.
func WriteChromeTrace(w io.Writer, s *Snapshot) error {
	c := &chromeWriter{w: bufio.NewWriterSize(w, 64<<10)}
	// The process_name row for pidCluster, then every other event.
	c.raw(`{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"crest cluster"}}`)

	spans := s.Spans()

	// Thread metadata: one named row per coordinator, sorted by id.
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
		c.begin()
		c.name("thread_name")
		c.fields("", "M", 0, 0, pidCluster, id)
		c.key("name")
		c.b = strconv.AppendUint(append(c.b, `"coordinator `...), id, 10)
		c.b = append(c.b, '"')
		c.end()
	}

	// Transaction attempts and their phase slices.
	for i := range spans {
		if c.err != nil {
			return c.err
		}
		sv := &spans[i]
		for j := range sv.Attempts {
			a := &sv.Attempts[j]
			end := a.End
			for _, ps := range a.Slices {
				if ps.End > end {
					end = ps.End // abort cleanup extends past the measured end
				}
			}
			c.begin()
			c.name(sv.Label)
			c.b = strconv.AppendInt(append(c.b, " #"...), int64(a.N), 10)
			c.fields("txn", "X", usTime(a.Start), usDur(end.Sub(a.Start)), pidCluster, sv.Coord)
			c.intArg("attempt", a.N)
			c.boolArg("falseConflict", a.False)
			c.key("outcome")
			if a.Committed {
				c.b = append(c.b, `"commit"`...)
			} else {
				c.b = appendString(append(c.b, `"abort:`...), a.Reason)
				c.b = append(c.b, '"')
			}
			c.intArg("rtts", a.TotalRTTs())
			c.uintArg("span", sv.ID)
			c.uintArg("txn", sv.Txn)
			c.end()
			for _, ps := range a.Slices {
				if ps.Dur() == 0 {
					continue
				}
				c.begin()
				c.name(ps.Phase.String())
				c.fields("phase", "X", usTime(ps.Start), usDur(ps.Dur()), pidCluster, sv.Coord)
				c.intArg("attempt", a.N)
				c.uintArg("span", sv.ID)
				c.end()
			}
		}
	}

	// Raw stream: round-trips as nested slices, CC events as instants.
	for i := range s.Events {
		if c.err != nil {
			return c.err
		}
		e := &s.Events[i]
		switch e.Kind {
		case KindRTT:
			c.begin()
			c.b = strconv.AppendInt(append(c.b, "RTT x"...), int64(e.Ops), 10)
			c.fields("rdma", "X", usTime(e.At)-usDur(e.Latency), usDur(e.Latency), pidCluster, e.Coord)
			c.intArg("attempt", e.Attempt)
			c.intArg("bytes", e.Bytes)
			c.intArg("ops", e.Ops)
			c.strArg("phase", e.Phase.String())
			c.intArg("qp", e.QP)
			c.intArg("region", e.Region)
			c.uintArg("span", e.Span)
			c.end()
		case KindConflict, KindLockAcquire, KindLockPiggyback, KindLockRelease:
			c.begin()
			if e.Kind == KindConflict {
				c.name("conflict")
				c.fields("cc", "i", usTime(e.At), 0, pidCluster, e.Coord)
			} else {
				c.name(e.Kind.String())
				c.fields("lock", "i", usTime(e.At), 0, pidCluster, e.Coord)
			}
			c.uintArg("key", uint64(e.Key))
			c.key("mask")
			c.b = strconv.AppendUint(append(c.b, `"0x`...), e.Mask, 16)
			c.b = append(c.b, '"')
			c.uintArg("span", e.Span)
			c.intArg("table", int(e.Table))
			c.end()
		case KindENOverflow:
			c.begin()
			c.name("en-overflow")
			c.fields("cc", "i", usTime(e.At), 0, pidCluster, e.Coord)
			c.intArg("cell", e.Cell)
			c.uintArg("key", uint64(e.Key))
			c.uintArg("span", e.Span)
			c.intArg("table", int(e.Table))
			c.end()
		case KindTxnAbort:
			c.begin()
			c.b = appendString(append(c.b, "abort:"...), e.Reason)
			c.fields("txn", "i", usTime(e.At), 0, pidCluster, e.Coord)
			c.intArg("attempt", e.Attempt)
			c.boolArg("falseConflict", e.False)
			c.uintArg("span", e.Span)
			c.end()
		case KindProcSpawn, KindProcBlock, KindProcWake, KindProcFinish:
			c.begin()
			c.name(e.Kind.String())
			c.fields("sim", "i", usTime(e.At), 0, pidSim, 0)
			c.strArg("proc", e.Label)
			if e.Reason != "" {
				c.strArg("queue", e.Reason)
			}
			c.end()
		}
	}

	c.raw("],\"displayTimeUnit\":\"ms\"}\n")
	if c.err == nil {
		c.err = c.w.Flush()
	}
	return c.err
}

// chromeWriter appends one trace event at a time to a reused buffer and
// writes it out. After the first write error it records the error and
// writes nothing more.
type chromeWriter struct {
	w   *bufio.Writer
	b   []byte // the event being built
	err error
}

// raw writes s, which must already be valid JSON text.
func (c *chromeWriter) raw(s string) {
	if c.err == nil {
		_, c.err = c.w.WriteString(s)
	}
}

// begin starts an event, which always follows the process_name event,
// and opens its name string; the caller appends the escaped name (name,
// appendString or plain ASCII) before fields.
func (c *chromeWriter) begin() { c.b = append(c.b[:0], `,{"name":"`...) }

// name appends the escaped text of s to the open name string.
func (c *chromeWriter) name(s string) { c.b = appendString(c.b, s) }

// fields closes the name and appends the remaining fixed fields, then
// opens args. cat and ph are constants that need no escaping; an empty
// cat and a zero dur are omitted, and instant ("i") events get thread
// scope ("s":"t").
func (c *chromeWriter) fields(cat, ph string, ts, dur float64, pid int, tid uint64) {
	b := append(c.b, '"')
	if cat != "" {
		b = append(append(append(b, `,"cat":"`...), cat...), '"')
	}
	b = append(append(append(b, `,"ph":"`...), ph...), `","ts":`...)
	b = appendFloat(b, ts)
	if dur != 0 {
		b = appendFloat(append(b, `,"dur":`...), dur)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	b = strconv.AppendUint(append(b, `,"tid":`...), tid, 10)
	if ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	c.b = append(b, `,"args":{`...)
}

// key starts the args member k; callers add keys in sorted order.
func (c *chromeWriter) key(k string) {
	if c.b[len(c.b)-1] != '{' {
		c.b = append(c.b, ',')
	}
	c.b = append(append(append(c.b, '"'), k...), `":`...)
}

// intArg, uintArg, boolArg and strArg append one args member.
func (c *chromeWriter) intArg(k string, v int) {
	c.key(k)
	c.b = strconv.AppendInt(c.b, int64(v), 10)
}

func (c *chromeWriter) uintArg(k string, v uint64) {
	c.key(k)
	c.b = strconv.AppendUint(c.b, v, 10)
}

func (c *chromeWriter) boolArg(k string, v bool) {
	c.key(k)
	c.b = strconv.AppendBool(c.b, v)
}

func (c *chromeWriter) strArg(k, v string) {
	c.key(k)
	c.b = append(appendString(append(c.b, '"'), v), '"')
}

// end closes args and the event and writes it.
func (c *chromeWriter) end() {
	c.b = append(c.b, "}}"...)
	if c.err == nil {
		_, c.err = c.w.Write(c.b)
	}
}

// appendFloat appends f as encoding/json does: the shortest 'f' form,
// or 'e' form outside [1e-6, 1e21) with a one-digit negative exponent
// unpadded (1e-7, not 1e-07). f must be finite, which every virtual
// time is.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends the contents of a JSON string for s (without the
// quotes) as encoding/json escapes it: '"' and '\\' backslashed, the
// control characters with their short escapes or \u00XX, '<', '>' and
// '&' as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte
// of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
