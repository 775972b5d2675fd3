package telemetry

import (
	"io"
	"strconv"
)

// Chrome trace-event pid values. The trace models the simulated machine as
// one "process" whose threads are the simulated PIDs, plus a separate
// scheduler process for batch-level occupancy events.
const (
	chromePidMachine   = 1
	chromePidScheduler = 2
	chromePidFleet     = 3
)

// chromeChunk is the buffered size at which the writer hands rendered
// events to its io.Writer.
const chromeChunk = 64 << 10

// WriteChromeTrace renders the recorded events as Chrome trace-event JSON
// (the JSON Array Format wrapped in an object), loadable in Perfetto or
// chrome://tracing. Timestamps are virtual microseconds with nanosecond
// decimals; the output is byte-deterministic for a given event stream.
// The recorder ring is rendered in place, without copying it.
//
//klebvet:artifact
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		return writeChrome(w, nil, nil)
	}
	older, newer := s.rec.runs()
	return writeChrome(w, older, newer)
}

// WriteChromeEvents renders an arbitrary event slice (oldest-first) in the
// same trace shape Sink.WriteChromeTrace produces. A live server renders a
// Snapshot's copied ring this way without holding the owning lock while
// formatting.
//
//klebvet:artifact
func WriteChromeEvents(w io.Writer, events []Event) error {
	return writeChrome(w, events, nil)
}

// writeChrome renders the events of older and then newer. Everything is
// appended into one buffer that goes to w in chromeChunk-sized writes; the
// first write error stops rendering and is returned.
func writeChrome(w io.Writer, older, newer []Event) error {
	// The slack holds the event that carries the buffer past chromeChunk.
	c := &chromeWriter{w: w, buf: make([]byte, 0, chromeChunk+chromeChunk/8)}
	c.raw("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	c.processName(chromePidMachine, "machine")
	c.raw(",\n")
	c.processName(chromePidScheduler, "scheduler")
	for _, run := range [2][]Event{older, newer} {
		for i := range run {
			c.event(&run[i])
			if len(c.buf) >= chromeChunk {
				if err := c.flush(); err != nil {
					return err
				}
			}
		}
	}
	c.raw("\n]}\n")
	return c.flush()
}

type chromeWriter struct {
	w   io.Writer
	buf []byte
	// fleetMeta records that the fleet process_name metadata line has been
	// emitted. It is written lazily before the first fleet event so traces
	// without fleet activity stay byte-identical to pre-fleet output.
	fleetMeta bool
}

// flush hands the buffered bytes to w and empties the buffer.
func (c *chromeWriter) flush() error {
	_, err := c.w.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

func (c *chromeWriter) raw(s string) { c.buf = append(c.buf, s...) }

func (c *chromeWriter) int(v int64) { c.buf = strconv.AppendInt(c.buf, v, 10) }

func (c *chromeWriter) uint(v uint64) { c.buf = strconv.AppendUint(c.buf, v, 10) }

// quote appends fmt's %q rendering of prefix+s without building the
// concatenation. %q copies printable ASCII other than '"' and '\\'
// verbatim; prefix must consist of such bytes, and an s that does too
// skips strconv.AppendQuote.
func (c *chromeWriter) quote(prefix, s string) {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' || b > '~' || b == '"' || b == '\\' {
			start := len(c.buf) + 1 // just past the opening quote
			c.buf = strconv.AppendQuote(c.buf, s)
			c.buf = append(c.buf, prefix...)
			copy(c.buf[start+len(prefix):], c.buf[start:len(c.buf)-len(prefix)])
			copy(c.buf[start:], prefix)
			return
		}
	}
	c.buf = append(c.buf, '"')
	c.buf = append(c.buf, prefix...)
	c.buf = append(c.buf, s...)
	c.buf = append(c.buf, '"')
}

func (c *chromeWriter) ts(ns uint64) { c.buf = appendTS(c.buf, ns) }

// appendTS renders a virtual-ns instant as the trace format's microsecond
// timestamp, exactly (integer math only): "%d.%03d" of ns/1000, ns%1000.
func appendTS(dst []byte, ns uint64) []byte {
	dst = strconv.AppendUint(dst, ns/1000, 10)
	frac := ns % 1000
	return append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

func (c *chromeWriter) bool(b uint64) {
	if b != 0 {
		c.raw("true")
	} else {
		c.raw("false")
	}
}

// processName emits a process_name metadata event (without a leading
// separator).
func (c *chromeWriter) processName(pid int, name string) {
	c.raw("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")
	c.int(int64(pid))
	c.raw(",\"tid\":0,\"args\":{\"name\":")
	c.quote("", name)
	c.raw("}}")
}

// fleetProcess emits the fleet process metadata once per trace.
func (c *chromeWriter) fleetProcess() {
	if c.fleetMeta {
		return
	}
	c.fleetMeta = true
	c.raw(",\n")
	c.processName(chromePidFleet, "fleet")
}

// head opens one event object with the common fields; a non-empty prefix
// is prepended to name. ph is a one-letter event phase.
func (c *chromeWriter) head(ph, prefix, name string, pid int, tid int32, ns uint64) {
	c.raw(",\n{\"ph\":\"")
	c.raw(ph)
	c.raw("\",\"name\":")
	c.quote(prefix, name)
	c.raw(",\"pid\":")
	c.int(int64(pid))
	c.raw(",\"tid\":")
	c.int(int64(tid))
	c.raw(",\"ts\":")
	c.ts(ns)
}

// instant emits a thread-scoped instant event; close with args or end.
func (c *chromeWriter) instant(prefix, name string, tid int32, ns uint64) {
	c.head("i", prefix, name, chromePidMachine, tid, ns)
	c.raw(",\"s\":\"t\"")
}

func (c *chromeWriter) end() { c.raw("}") }

// event renders one recorded event as one (occasionally two) trace events.
func (c *chromeWriter) event(e *Event) {
	ns := uint64(e.Time)
	switch e.Kind {
	case KindMeta:
		c.raw(",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":")
		c.int(chromePidMachine)
		c.raw(",\"tid\":")
		c.int(int64(e.PID))
		c.raw(",\"args\":{\"name\":")
		c.quote("", e.Name)
		c.raw("}}")
	case KindCtxSwitch:
		c.instant("", "ctx-switch", e.PID, ns)
		c.raw(",\"args\":{\"prev\":")
		c.int(int64(int32(uint32(e.Arg1))))
		c.raw(",\"next\":")
		c.int(int64(e.PID))
		c.raw("}}")
	case KindTimerArm:
		c.instant("", "hrtimer-arm", 0, ns)
		c.raw(",\"args\":{\"timer\":")
		c.uint(e.Arg1)
		c.raw(",\"nominal_ns\":")
		c.uint(e.Arg2)
		c.raw("}}")
	case KindTimerFire:
		c.instant("", "hrtimer-fire", 0, ns)
		c.raw(",\"args\":{\"nominal_ns\":")
		c.uint(e.Arg1)
		c.raw(",\"effective_ns\":")
		c.uint(e.Arg2)
		c.raw(",\"jitter_ns\":")
		c.uint(e.Arg2 - e.Arg1)
		c.raw("}}")
	case KindTimerCancel:
		c.instant("", "hrtimer-cancel", 0, ns)
		c.raw(",\"args\":{\"timer\":")
		c.uint(e.Arg1)
		c.raw("}}")
	case KindKprobe:
		c.instant("kprobe:", e.Name, e.PID, ns)
		c.end()
	case KindSyscallEnter:
		c.head("B", "sys:", e.Name, chromePidMachine, e.PID, ns)
		c.end()
	case KindSyscallExit:
		c.head("E", "sys:", e.Name, chromePidMachine, e.PID, ns)
		c.end()
	case KindPMI:
		c.instant("", "pmi", 0, ns)
		c.raw(",\"args\":{\"counter\":")
		c.uint(uint64(uint32(e.Arg1)))
		c.raw(",\"fixed\":")
		c.bool(e.Arg1 >> 32)
		c.raw(",\"latency_ns\":")
		c.uint(e.Arg2)
		c.raw("}}")
	case KindOverflow:
		c.instant("", "pmu-overflow", 0, ns)
		c.raw(",\"args\":{\"counter\":")
		c.uint(uint64(uint32(e.Arg1)))
		c.raw(",\"fixed\":")
		c.bool(e.Arg1 >> 32)
		c.raw("}}")
	case KindIoctl:
		c.instant("ioctl:", e.Name, e.PID, ns)
		c.raw(",\"args\":{\"cmd\":")
		c.uint(e.Arg1)
		c.raw("}}")
	case KindStage:
		// A completed span: ts is the stage start, dur its virtual length.
		c.head("X", "stage:", e.Name, chromePidMachine, 0, ns-e.Arg1)
		c.raw(",\"dur\":")
		c.ts(e.Arg1)
		c.end()
	case KindSample:
		// Counter track: Perfetto draws ring occupancy over time.
		c.ringDepth(ns, e.Arg1)
	case KindPause:
		c.instant("", "kleb-pause", 0, ns)
		c.raw(",\"args\":{\"stops\":")
		c.uint(e.Arg1)
		c.raw("}}")
	case KindDrain:
		c.instant("", "kleb-drain", 0, ns)
		c.raw(",\"args\":{\"drained\":")
		c.uint(e.Arg1)
		c.raw(",\"remaining\":")
		c.uint(e.Arg2)
		c.raw("}}")
		c.ringDepth(ns, e.Arg2)
	case KindRun:
		c.head("i", "", "run", chromePidScheduler, e.PID, ns)
		c.raw(",\"s\":\"t\",\"args\":{\"index\":")
		c.uint(e.Arg1)
		c.raw(",\"failed\":")
		c.bool(e.Arg2)
		c.raw("}}")
	case KindFault:
		c.instant("fault:", e.Name, 0, ns)
		c.end()
	case KindCtlRetry:
		c.instant("ctl-retry:", e.Name, 0, ns)
		c.raw(",\"args\":{\"attempt\":")
		c.uint(e.Arg1)
		c.raw("}}")
	case KindDegraded:
		c.instant("", "run-degraded", 0, ns)
		c.raw(",\"args\":{\"reason\":")
		c.quote("", e.Name)
		c.raw("}}")
	case KindMuxRotate:
		c.instant("", "mux-rotate", e.PID, ns)
		c.raw(",\"args\":{\"round\":")
		c.uint(e.Arg1)
		c.raw(",\"rounds\":")
		c.uint(e.Arg2 >> 32)
		c.raw(",\"placed\":")
		c.uint(uint64(uint32(e.Arg2)))
		c.raw("}}")
	case KindFleetNode:
		c.fleetProcess()
		if e.Arg2&2 != 0 {
			c.head("i", "fleet-node:", e.Name, chromePidFleet, e.PID, ns)
		} else {
			c.head("i", "", "fleet-node", chromePidFleet, e.PID, ns)
		}
		c.raw(",\"s\":\"t\",\"args\":{\"samples\":")
		c.uint(e.Arg1)
		c.raw(",\"degraded\":")
		c.bool(e.Arg2 & 1)
		c.raw(",\"faulted\":")
		c.bool(e.Arg2 & 2)
		c.raw("}}")
	case KindFleetRound:
		c.fleetProcess()
		c.head("i", "", "fleet-round", chromePidFleet, 0, ns)
		c.raw(",\"s\":\"p\",\"args\":{\"round\":")
		c.uint(e.Arg1)
		c.raw(",\"nodes\":")
		c.uint(e.Arg2 >> 32)
		c.raw(",\"degraded\":")
		c.uint(uint64(uint32(e.Arg2)))
		c.raw("}}")
	}
}

// ringDepth emits one point of the kleb-ring counter track.
func (c *chromeWriter) ringDepth(ns, depth uint64) {
	c.head("C", "", "kleb-ring", chromePidMachine, 0, ns)
	c.raw(",\"args\":{\"depth\":")
	c.uint(depth)
	c.raw("}}")
}
