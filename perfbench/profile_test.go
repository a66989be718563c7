package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestFoldModules(t *testing.T) {
	stacks := []stack{
		// Innermost repo frame wins over its callers.
		{[]string{"crest/internal/core.(*Coordinator).admit", "crest/internal/engine.(*DB).Run", "crest/internal/bench.Run"}, 4},
		// Standard-library frames below a repo frame charge the repo frame.
		{[]string{"fmt.Sprintf", "crest/internal/core.(*Coordinator).admit"}, 2},
		// Subpackages fold into their module.
		{[]string{"crest/internal/workload/tpcc.(*Generator).Next", "crest/internal/bench.Run.func1"}, 3},
		{[]string{"crest/internal/workload.(*Zipf).Next"}, 1},
		// No repo frame: runtime.
		{[]string{"runtime.mallocgc", "runtime.gcBgMarkWorker"}, 5},
		{nil, 1},
		// A module outside the reported list keeps its own name.
		{[]string{"crest/internal/motor.(*Coordinator).Execute"}, 4},
	}
	got := foldModules(stacks)
	want := map[string]float64{"core": 6. / 20, "workload": 4. / 20, "runtime": 6. / 20, "motor": 4. / 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"crest/internal/sim.(*Env).run":                 "sim",
		"crest/internal/workload/smallbank.(*Gen).Next": "workload",
		"crest/internal/hashindex.Lookup":               "hashindex",
		"crest.RunBenchmark":                            "",
		"main.run":                                      "",
		"runtime.chansend":                              "",
	} {
		got, ok := moduleOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

// pb is a minimal protocol-buffer encoder for hand-built profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(field, p)
}

// TestParseProfile decodes a hand-built profile holding both encodings
// of repeated fields and an inlined location.
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "crest/internal/core.admit", "fmt.Sprintf", "crest/internal/sim.(*Env).run"}
	var p pb
	// Sample 1: packed ids and values; its leaf location inlines
	// fmt.Sprintf into core.admit.
	p = p.bytes(2, pb(nil).packed(1, 1, 2).packed(2, 7, 70))
	// Sample 2: unpacked ids and values.
	p = p.bytes(2, pb(nil).varint(1, 2).varint(2, 3).varint(2, 30))
	p = p.bytes(4, pb(nil).varint(1, 1).bytes(4, pb(nil).varint(1, 11)).bytes(4, pb(nil).varint(1, 10)))
	p = p.bytes(4, pb(nil).varint(1, 2).bytes(4, pb(nil).varint(1, 12)))
	p = p.bytes(5, pb(nil).varint(1, 10).varint(2, 3))
	p = p.bytes(5, pb(nil).varint(1, 11).varint(2, 4))
	p = p.bytes(5, pb(nil).varint(1, 12).varint(2, 5))
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{[]string{"fmt.Sprintf", "crest/internal/core.admit", "crest/internal/sim.(*Env).run"}, 7},
		{[]string{"crest/internal/sim.(*Env).run"}, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if shares := foldModules(got); shares["core"] != 0.7 || shares["sim"] != 0.3 {
		t.Fatalf("fold = %v", shares)
	}
	if _, err := parseProfile(gz.Bytes()[:10]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
