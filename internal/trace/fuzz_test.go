package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"kleb/internal/ktime"
	"kleb/internal/monitor"
)

// FuzzReadCSV: arbitrary input must never panic the parser, and anything
// WriteCSV produced must parse back.
func FuzzReadCSV(f *testing.F) {
	f.Add("time_us,INST_RETIRED\n100.0,42\n")
	f.Add("time_us,LLC_MISSES,INST_RETIRED\n0.1,1,2\n0.2,3,4\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, input string) {
		events, samples, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		// Valid parses round-trip.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, events, samples); err != nil {
			t.Fatalf("re-render failed: %v", err)
		}
		_, samples2, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(samples2) != len(samples) {
			t.Fatalf("round trip changed row count: %d vs %d", len(samples2), len(samples))
		}
	})
}

// FuzzAppendCSVRow: every row must match fmt's "%.1f" timestamp and "%d"
// deltas byte for byte, whatever the time, deltas and column count.
func FuzzAppendCSVRow(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint8(1))
	f.Add(uint64(150), uint64(42), uint64(7), uint8(2))
	f.Add(uint64(1<<50), uint64(1), uint64(2), uint8(3))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(0), uint8(5))
	f.Fuzz(func(t *testing.T, ns, d0, d1 uint64, n uint8) {
		s := monitor.Sample{Time: ktime.Time(ns), Deltas: []uint64{d0, d1}}
		nEvents := int(n % 8)
		if got, want := string(AppendCSVRow(nil, nEvents, s)), refCSVRow(nEvents, s); got != want {
			t.Fatalf("AppendCSVRow(%d events, time %d ns) = %q, want %q", nEvents, ns, got, want)
		}
	})
}
