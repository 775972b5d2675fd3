package telemetry

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"kleb/internal/ktime"
)

// chromeNames need every kind of %q treatment: plain ASCII, quote and
// backslash escapes, control bytes, printable and non-printable non-ASCII,
// and invalid UTF-8.
var chromeNames = []string{
	"", "plain", `say "hi"`, `back\slash`, "ctl\x00\x01\x1f\x7f\t\n\r",
	"naïve—ü", "日本語", "line\u2028sep", "nb\u00a0sp", "\ufeffbom", "e\u0301", "\U0001F600",
	"del\x7f", "tab\t", "sp ace~", "\xff\xfe bad", "trunc\xe6\x97", "mixed\"\\\x00\xc3\xa9\xff",
}

// everyKindEvents builds events of every Kind (plus one unknown kind),
// each with every name in chromeNames and a spread of PIDs and arguments.
func everyKindEvents() []Event {
	args := []uint64{0, 1, 7, 1<<32 | 5, 3 << 32, math.MaxUint32, math.MaxUint64}
	pids := []int32{0, 1, -1, math.MaxInt32, math.MinInt32}
	var out []Event
	t := uint64(0)
	for k := Kind(0); k <= numKinds; k++ {
		for i, name := range chromeNames {
			t += 1237
			out = append(out, Event{
				Time: ktime.Time(t),
				Kind: k,
				PID:  pids[i%len(pids)],
				Name: name,
				Arg1: args[i%len(args)],
				Arg2: args[(i+3)%len(args)],
			})
		}
	}
	// Extremes of the virtual clock.
	out = append(out,
		Event{Time: ktime.Time(math.MaxUint64), Kind: KindStage, Name: "end", Arg1: 999},
		Event{Time: ktime.Time(5), Kind: KindStage, Name: "wrap", Arg1: 1 << 40},
		Event{Time: ktime.Time(math.MaxUint64), Kind: KindTimerFire, Arg1: 3, Arg2: 1},
	)
	return out
}

// TestChromeWriterMatchesReference requires the append-based writer to
// produce the fmt reference's bytes for every Kind, escaping-heavy names,
// the lazy fleet metadata line, and traces longer than one write chunk.
func TestChromeWriterMatchesReference(t *testing.T) {
	all := everyKindEvents()
	var big []Event
	for len(big)*64 < 4*chromeChunk {
		big = append(big, all...)
	}
	var noFleet []Event
	for _, e := range all {
		if e.Kind != KindFleetNode && e.Kind != KindFleetRound {
			noFleet = append(noFleet, e)
		}
	}
	cases := map[string][]Event{
		"empty":    nil,
		"all":      all,
		"no-fleet": noFleet,
		"big":      big,
	}
	for k := Kind(0); k <= numKinds; k++ {
		var one []Event
		for _, e := range all {
			if e.Kind == k {
				one = append(one, e)
			}
		}
		cases["kind-"+k.String()] = one
	}
	for name, events := range cases {
		var want, got bytes.Buffer
		if err := refWriteChromeEvents(&want, events); err != nil {
			t.Fatal(err)
		}
		if err := WriteChromeEvents(&got, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: output differs from the fmt reference at byte %d\n got: %.200q\nwant: %.200q",
				name, firstDiff(got.Bytes(), want.Bytes()), got.Bytes(), want.Bytes())
		}
	}
}

// TestSinkChromeTraceRendersRingInPlace checks Sink.WriteChromeTrace
// against the reference over an empty, a partly filled and a wrapped ring.
func TestSinkChromeTraceRendersRingInPlace(t *testing.T) {
	all := everyKindEvents()
	for _, n := range []int{0, 1, len(all) / 3, len(all), 2*len(all) + 5} {
		s := NewWithCapacity(len(all) / 2)
		for i := 0; i < n; i++ {
			s.rec.record(all[i%len(all)])
		}
		var want, got bytes.Buffer
		if err := refWriteChromeEvents(&want, s.Events()); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteChromeTrace(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d events into a %d-slot ring: output differs at byte %d",
				n, len(all)/2, firstDiff(got.Bytes(), want.Bytes()))
		}
	}
	var nilSink *Sink
	var want, got bytes.Buffer
	_ = refWriteChromeEvents(&want, nil)
	if err := nilSink.WriteChromeTrace(&got); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("nil sink: err %v, output %q, want %q", err, got.Bytes(), want.Bytes())
	}
}

// failingWriter accepts n writes and fails every later one.
type failingWriter struct {
	n, calls int
	got      bytes.Buffer
}

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.n {
		return 0, errWriteFailed
	}
	return w.got.Write(p)
}

// TestChromeWriterReturnsWriteError fails the Nth write for every N the
// trace reaches: the error must come back, nothing may be written after
// it, and what was written must be a prefix of the reference.
func TestChromeWriterReturnsWriteError(t *testing.T) {
	var events []Event
	for len(events)*64 < 3*chromeChunk {
		events = append(events, everyKindEvents()...)
	}
	var want bytes.Buffer
	_ = refWriteChromeEvents(&want, events)
	ok := &failingWriter{n: math.MaxInt}
	if err := WriteChromeEvents(ok, events); err != nil {
		t.Fatal(err)
	}
	if ok.calls < 3 {
		t.Fatalf("trace of %d bytes took %d writes; want several chunks", want.Len(), ok.calls)
	}
	for n := 0; n < ok.calls; n++ {
		w := &failingWriter{n: n}
		if err := WriteChromeEvents(w, events); !errors.Is(err, errWriteFailed) {
			t.Errorf("failing write %d: err = %v, want %v", n+1, err, errWriteFailed)
		}
		if w.calls != n+1 {
			t.Errorf("failing write %d: %d writes issued, want none after the failure", n+1, w.calls)
		}
		if !bytes.HasPrefix(want.Bytes(), w.got.Bytes()) {
			t.Errorf("failing write %d: bytes before the failure are not a prefix of the reference", n+1)
		}
	}
}

// FuzzWriteChromeEvents compares the writer with the reference on fuzzed
// names, kinds and arguments.
func FuzzWriteChromeEvents(f *testing.F) {
	for i, name := range chromeNames {
		f.Add(uint8(i), name, uint64(i)*1001, uint64(1)<<32|uint64(i), uint64(i), int32(i))
	}
	f.Fuzz(func(t *testing.T, kind uint8, name string, ns, a1, a2 uint64, pid int32) {
		events := []Event{{Time: ktime.Time(ns), Kind: Kind(kind % (uint8(numKinds) + 1)), PID: pid, Name: name, Arg1: a1, Arg2: a2}}
		var want, got bytes.Buffer
		_ = refWriteChromeEvents(&want, events)
		if err := WriteChromeEvents(&got, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("output differs from the fmt reference\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
		}
	})
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
