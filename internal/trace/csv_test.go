package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
)

// refCSVRow is the fmt rendering AppendCSVRow must reproduce byte for byte.
func refCSVRow(nEvents int, s monitor.Sample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.1f", float64(s.Time)/1000)
	for i := 0; i < nEvents; i++ {
		var v uint64
		if i < len(s.Deltas) {
			v = s.Deltas[i]
		}
		fmt.Fprintf(&b, ",%d", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// csvTimes lists timestamps (ns) that stress the "%.1f" fast path: zero,
// sub-µs values, every ns%100 == 50 tie up to 10^5, both sides of the
// 2^50 guard and the top of the range.
func csvTimes() []uint64 {
	ts := []uint64{0, 1, 49, 50, 51, 99, 100, 149, 150, 151, 949, 950, 951, 999, 1000, 1049, 1050,
		99_949, 99_950, 99_951, 123_456_789, 1e9 + 50, 1e12 - 50, 1e15 + 49}
	for ns := uint64(50); ns <= 100_000; ns += 100 {
		ts = append(ts, ns)
	}
	for _, base := range []uint64{1 << 50, 1 << 53, 1 << 60, math.MaxUint64} {
		for d := uint64(0); d <= 200; d++ {
			ts = append(ts, base-d)
			if base+d > base {
				ts = append(ts, base+d)
			}
		}
	}
	return ts
}

func TestAppendCSVRowMatchesFmt(t *testing.T) {
	deltas := [][]uint64{
		nil,
		{0},
		{1, 2, 3},
		{math.MaxUint64, 0, math.MaxUint64 - 1, 1 << 63, 10},
		{7, 8, 9, 10, 11, 12}, // longer than nEvents: extra deltas are not logged
	}
	for _, ns := range csvTimes() {
		for _, d := range deltas {
			for _, n := range []int{0, 1, 5} {
				s := monitor.Sample{Time: ktime.Time(ns), Deltas: d}
				got := string(AppendCSVRow(nil, n, s))
				if want := refCSVRow(n, s); got != want {
					t.Fatalf("AppendCSVRow(%d events, time %d ns, deltas %v) = %q, want %q", n, ns, d, got, want)
				}
			}
		}
	}
}

func TestAppendCSVHeader(t *testing.T) {
	for _, events := range [][]isa.Event{nil, {isa.EvInstructions}, {isa.EvInstructions, isa.EvCycles, isa.EvLLCMisses}} {
		cols := []string{"time_us"}
		for _, ev := range events {
			cols = append(cols, ev.String())
		}
		want := strings.Join(cols, ",") + "\n"
		if got := string(AppendCSVHeader(nil, events)); got != want {
			t.Errorf("AppendCSVHeader(%v) = %q, want %q", events, got, want)
		}
	}
}

// TestWriteCSVChunks renders a log longer than one write chunk and
// compares it with the header plus the reference rows.
func TestWriteCSVChunks(t *testing.T) {
	events := []isa.Event{isa.EvInstructions, isa.EvLLCMisses}
	var samples []monitor.Sample
	var want strings.Builder
	want.WriteString("time_us,INST_RETIRED,LLC_MISSES\n")
	for i := uint64(0); i < 5000; i++ {
		s := monitor.Sample{Time: ktime.Time(i * 100_050), Deltas: []uint64{i * 1000, i}}
		samples = append(samples, s)
		want.WriteString(refCSVRow(len(events), s))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events, samples); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Errorf("WriteCSV output differs from the reference rows")
	}
}

func TestAppendCSVRowsNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	samples := make([]monitor.Sample, 0, 64)
	for _, ns := range csvTimes()[:64] {
		samples = append(samples, monitor.Sample{Time: ktime.Time(ns), Deltas: []uint64{ns, ns / 3, math.MaxUint64, 0, 42}})
	}
	buf := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, s := range samples {
			buf = AppendCSVRow(buf, 5, s)
		}
	})
	if allocs != 0 {
		t.Errorf("appending %d rows into a warmed buffer: %.1f allocs, want 0", len(samples), allocs)
	}
}

// BenchmarkAppendCSVRows times one log row of a five-event K-LEB sample
// at 100µs spacing, appended into a reused buffer.
func BenchmarkAppendCSVRows(b *testing.B) {
	const rows = 1024
	samples := make([]monitor.Sample, rows)
	for i := range samples {
		ns := uint64(i)*100_000 + uint64(i*37%1000)
		samples[i] = monitor.Sample{Time: ktime.Time(ns), Deltas: []uint64{250_000 + ns%997, 310_000, 4_000 + ns%89, 700 + ns%13, 1_200}}
	}
	buf := make([]byte, 0, rows*64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%rows == 0 {
			buf = buf[:0]
		}
		buf = AppendCSVRow(buf, 5, samples[i%rows])
	}
}
