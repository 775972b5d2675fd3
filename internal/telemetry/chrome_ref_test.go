package telemetry

// The fmt-based Chrome trace renderer the production writer replaced, kept
// verbatim as the byte-for-byte reference for chrome.go.

import (
	"fmt"
	"io"
)

// refWriteChromeEvents is the reference rendering of WriteChromeEvents.
func refWriteChromeEvents(w io.Writer, events []Event) error {
	cw := &refChromeWriter{w: w}
	cw.printf("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	cw.printf("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"machine\"}}", chromePidMachine)
	cw.printf(",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"scheduler\"}}", chromePidScheduler)
	for _, e := range events {
		cw.event(e)
	}
	cw.printf("\n]}\n")
	return cw.err
}

type refChromeWriter struct {
	w   io.Writer
	err error
	// fleetMeta records that the fleet process_name metadata line has been
	// emitted. It is written lazily before the first fleet event so traces
	// without fleet activity stay byte-identical to pre-fleet output.
	fleetMeta bool
}

// fleetProcess emits the fleet process metadata once per trace.
func (c *refChromeWriter) fleetProcess() {
	if c.fleetMeta {
		return
	}
	c.fleetMeta = true
	c.printf(",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"fleet\"}}", chromePidFleet)
}

func (c *refChromeWriter) printf(format string, args ...any) {
	if c.err != nil {
		return
	}
	_, c.err = fmt.Fprintf(c.w, format, args...)
}

// ts renders a virtual-ns instant as the trace format's microsecond
// timestamp, exactly (integer math only).
func refTS(ns uint64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// head opens one event object with the common fields.
func (c *refChromeWriter) head(ph, name string, pid int, tid int32, ns uint64) {
	c.printf(",\n{\"ph\":%q,\"name\":%q,\"pid\":%d,\"tid\":%d,\"ts\":%s", ph, name, pid, tid, refTS(ns))
}

// instant emits a thread-scoped instant event; close with args or end.
func (c *refChromeWriter) instant(name string, tid int32, ns uint64) {
	c.head("i", name, chromePidMachine, tid, ns)
	c.printf(",\"s\":\"t\"")
}

func (c *refChromeWriter) end() { c.printf("}") }

func refBoolStr(b uint64) string {
	if b != 0 {
		return "true"
	}
	return "false"
}

// event renders one recorded event as one (occasionally two) trace events.
func (c *refChromeWriter) event(e Event) {
	ns := uint64(e.Time)
	switch e.Kind {
	case KindMeta:
		c.printf(",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%q}}",
			chromePidMachine, e.PID, e.Name)
	case KindCtxSwitch:
		c.instant("ctx-switch", e.PID, ns)
		c.printf(",\"args\":{\"prev\":%d,\"next\":%d}", int32(uint32(e.Arg1)), e.PID)
		c.end()
	case KindTimerArm:
		c.instant("hrtimer-arm", 0, ns)
		c.printf(",\"args\":{\"timer\":%d,\"nominal_ns\":%d}", e.Arg1, e.Arg2)
		c.end()
	case KindTimerFire:
		c.instant("hrtimer-fire", 0, ns)
		c.printf(",\"args\":{\"nominal_ns\":%d,\"effective_ns\":%d,\"jitter_ns\":%d}",
			e.Arg1, e.Arg2, e.Arg2-e.Arg1)
		c.end()
	case KindTimerCancel:
		c.instant("hrtimer-cancel", 0, ns)
		c.printf(",\"args\":{\"timer\":%d}", e.Arg1)
		c.end()
	case KindKprobe:
		c.instant("kprobe:"+e.Name, e.PID, ns)
		c.end()
	case KindSyscallEnter:
		c.head("B", "sys:"+e.Name, chromePidMachine, e.PID, ns)
		c.end()
	case KindSyscallExit:
		c.head("E", "sys:"+e.Name, chromePidMachine, e.PID, ns)
		c.end()
	case KindPMI:
		c.instant("pmi", 0, ns)
		c.printf(",\"args\":{\"counter\":%d,\"fixed\":%s,\"latency_ns\":%d}",
			uint32(e.Arg1), refBoolStr(e.Arg1>>32), e.Arg2)
		c.end()
	case KindOverflow:
		c.instant("pmu-overflow", 0, ns)
		c.printf(",\"args\":{\"counter\":%d,\"fixed\":%s}", uint32(e.Arg1), refBoolStr(e.Arg1>>32))
		c.end()
	case KindIoctl:
		c.instant("ioctl:"+e.Name, e.PID, ns)
		c.printf(",\"args\":{\"cmd\":%d}", e.Arg1)
		c.end()
	case KindStage:
		// A completed span: ts is the stage start, dur its virtual length.
		c.head("X", "stage:"+e.Name, chromePidMachine, 0, ns-e.Arg1)
		c.printf(",\"dur\":%s", refTS(e.Arg1))
		c.end()
	case KindSample:
		// Counter track: Perfetto draws ring occupancy over time.
		c.head("C", "kleb-ring", chromePidMachine, 0, ns)
		c.printf(",\"args\":{\"depth\":%d}", e.Arg1)
		c.end()
	case KindPause:
		c.instant("kleb-pause", 0, ns)
		c.printf(",\"args\":{\"stops\":%d}", e.Arg1)
		c.end()
	case KindDrain:
		c.instant("kleb-drain", 0, ns)
		c.printf(",\"args\":{\"drained\":%d,\"remaining\":%d}", e.Arg1, e.Arg2)
		c.end()
		c.head("C", "kleb-ring", chromePidMachine, 0, ns)
		c.printf(",\"args\":{\"depth\":%d}", e.Arg2)
		c.end()
	case KindRun:
		c.head("i", "run", chromePidScheduler, e.PID, ns)
		c.printf(",\"s\":\"t\",\"args\":{\"index\":%d,\"failed\":%s}", e.Arg1, refBoolStr(e.Arg2))
		c.end()
	case KindFault:
		c.instant("fault:"+e.Name, 0, ns)
		c.end()
	case KindCtlRetry:
		c.instant("ctl-retry:"+e.Name, 0, ns)
		c.printf(",\"args\":{\"attempt\":%d}", e.Arg1)
		c.end()
	case KindDegraded:
		c.instant("run-degraded", 0, ns)
		c.printf(",\"args\":{\"reason\":%q}", e.Name)
		c.end()
	case KindMuxRotate:
		c.instant("mux-rotate", e.PID, ns)
		c.printf(",\"args\":{\"round\":%d,\"rounds\":%d,\"placed\":%d}",
			e.Arg1, e.Arg2>>32, uint32(e.Arg2))
		c.end()
	case KindFleetNode:
		c.fleetProcess()
		name := "fleet-node"
		if e.Arg2&2 != 0 {
			name = "fleet-node:" + e.Name
		}
		c.head("i", name, chromePidFleet, e.PID, ns)
		c.printf(",\"s\":\"t\",\"args\":{\"samples\":%d,\"degraded\":%s,\"faulted\":%s}",
			e.Arg1, refBoolStr(e.Arg2&1), refBoolStr(e.Arg2&2))
		c.end()
	case KindFleetRound:
		c.fleetProcess()
		c.head("i", "fleet-round", chromePidFleet, 0, ns)
		c.printf(",\"s\":\"p\",\"args\":{\"round\":%d,\"nodes\":%d,\"degraded\":%d}",
			e.Arg1, e.Arg2>>32, uint32(e.Arg2))
		c.end()
	}
}
