package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU-profile sample: its frames' function names,
// innermost first, and its weight in samples.
type stack struct {
	frames []string
	weight int64
}

// repoPrefix is the import-path prefix of the repository's modules.
const repoPrefix = "crest/internal/"

// runtimeModule receives the samples whose stacks hold no repository
// frame: the Go runtime, the garbage collector and the standard
// library called from outside the repository.
const runtimeModule = "runtime"

// moduleOf returns the internal module a function belongs to:
// "crest/internal/core.(*Coordinator).admit" gives "core" and a
// subpackage such as "crest/internal/workload/tpcc.(*Gen).Next" folds
// into "workload".
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}

// foldModules charges each sample to the module of its innermost
// repository frame, or to runtimeModule when it has none, and returns
// each module's share of all sample weight. The shares sum to 1.
func foldModules(stacks []stack) map[string]float64 {
	weight := map[string]int64{}
	var total int64
	for _, s := range stacks {
		mod := runtimeModule
		for _, fn := range s.frames {
			if m, ok := moduleOf(fn); ok {
				mod = m
				break
			}
		}
		weight[mod] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(weight))
	for m, w := range weight {
		shares[m] = float64(w) / float64(total)
	}
	return shares
}

// parseProfile decodes a gzipped pprof protocol buffer, as written by
// runtime/pprof, into stacks. It reads only what the fold needs: each
// sample's first value and location ids, each location's lines (an
// inlined call expands to several, innermost first) and each
// function's name.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without a value")
		}
		st := stack{weight: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// eachField walks the fields of one protocol-buffer message, passing
// varint values as v and length-delimited payloads as b.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field: one unpacked value v
// when b is nil, or every varint of a packed payload b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
