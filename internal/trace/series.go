package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
)

// WriteCSV renders a sample series as CSV: a header of event mnemonics,
// then one row per sample with the timestamp in microseconds. This is the
// K-LEB controller's log file format; AppendCSVHeader and AppendCSVRow
// are its one formatter.
func WriteCSV(w io.Writer, events []isa.Event, samples []monitor.Sample) error {
	buf := AppendCSVHeader(make([]byte, 0, csvChunk), events)
	for _, s := range samples {
		if len(buf) >= csvChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = AppendCSVRow(buf, len(events), s)
	}
	_, err := w.Write(buf)
	return err
}

// csvChunk is the buffered size at which WriteCSV hands rows to its writer.
const csvChunk = 32 << 10

// AppendCSVHeader appends the log's header line to dst: "time_us" and then
// each event's mnemonic, comma-separated.
func AppendCSVHeader(dst []byte, events []isa.Event) []byte {
	dst = append(dst, "time_us"...)
	for _, ev := range events {
		dst = append(dst, ',')
		dst = append(dst, ev.String()...)
	}
	return append(dst, '\n')
}

// AppendCSVRow appends one sample's log row to dst: the timestamp as
// fmt's "%.1f" of float64(s.Time)/1000 (microseconds), then nEvents
// decimal deltas, zero-filled where s.Deltas is short. Rows appended into a
// buffer with room to spare allocate nothing.
func AppendCSVRow(dst []byte, nEvents int, s monitor.Sample) []byte {
	dst = appendMicros(dst, uint64(s.Time))
	for i := 0; i < nEvents; i++ {
		var v uint64
		if i < len(s.Deltas) {
			v = s.Deltas[i]
		}
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, '\n')
}

// appendMicros appends ns as fmt's "%.1f" of float64(ns)/1000 without the
// float: the integer-rounded tenths of a microsecond. Below 2^50 the
// quotient's rounding error is under ns/1000·2^-53 < 0.000125 µs, while
// ns/1000 sits at least 0.001 µs from a rounding boundary unless
// ns%100 == 50, so the two roundings agree. Ties and larger values take
// strconv.AppendFloat, which is what fmt calls.
func appendMicros(dst []byte, ns uint64) []byte {
	if ns%100 == 50 || ns >= 1<<50 {
		return strconv.AppendFloat(dst, float64(ns)/1000, 'f', 1, 64)
	}
	tenths := (ns + 50) / 100
	dst = strconv.AppendUint(dst, tenths/10, 10)
	return append(dst, '.', byte('0'+tenths%10))
}

// ReadCSV parses a sample log written by WriteCSV (or by the K-LEB
// controller), returning the event columns and the samples.
func ReadCSV(r io.Reader) ([]isa.Event, []monitor.Sample, error) {
	scanner := bufio.NewScanner(r)
	if !scanner.Scan() {
		return nil, nil, fmt.Errorf("trace: empty log")
	}
	header := strings.Split(scanner.Text(), ",")
	if len(header) < 2 || header[0] != "time_us" {
		return nil, nil, fmt.Errorf("trace: bad header %q", scanner.Text())
	}
	events := make([]isa.Event, 0, len(header)-1)
	for _, name := range header[1:] {
		ev, ok := isa.EventByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("trace: unknown event column %q", name)
		}
		events = append(events, ev)
	}
	var samples []monitor.Sample
	line := 1
	for scanner.Scan() {
		line++
		fields := strings.Split(scanner.Text(), ",")
		if len(fields) != len(header) {
			return nil, nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(fields), len(header))
		}
		us, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: line %d timestamp: %w", line, err)
		}
		s := monitor.Sample{
			Time:   ktime.Time(us * 1000),
			Deltas: make([]uint64, len(events)),
		}
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("trace: line %d column %d: %w", line, i+1, err)
			}
			s.Deltas[i] = v
		}
		samples = append(samples, s)
	}
	return events, samples, scanner.Err()
}

// Bucket aggregates a delta series into n equal-count buckets (summing
// deltas), for compact textual rendering of long time series.
func Bucket(series []uint64, n int) []uint64 {
	if n <= 0 || len(series) == 0 {
		return nil
	}
	if n > len(series) {
		n = len(series)
	}
	out := make([]uint64, n)
	for i, v := range series {
		out[i*n/len(series)] += v
	}
	return out
}

// Sparkline renders a delta series as a one-line unicode bar chart — handy
// for eyeballing phase behaviour (Fig 4/7) in terminal output.
func Sparkline(series []uint64, width int) string {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	b := Bucket(series, width)
	if len(b) == 0 {
		return ""
	}
	var max uint64
	for _, v := range b {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range b {
		idx := 0
		if max > 0 {
			idx = int(v * uint64(len(levels)-1) / max)
		}
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
