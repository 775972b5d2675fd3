package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"strings"

	"kleb"
	"kleb/internal/kernel"
	klebtool "kleb/internal/kleb"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// The hf-collect pass: K-LEB at the paper's 100µs period over a long
// single-phase synthetic program, once per sub-seed with telemetry off and
// once with trace and metrics export on.
const (
	hfSubSeeds   = 4
	hfInstr      = 6_000_000_000
	hfFootprint  = 1 << 20
	hfRandomFrac = 0.2
	hfPeriod     = 100 * kleb.Microsecond
)

// hfEvents is the monitoring request: the fixed instruction and cycle
// counters plus three programmable events.
var hfEvents = []kleb.Event{kleb.Instructions, kleb.Cycles, kleb.LLCReferences, kleb.LLCMisses, kleb.BranchMisses}

type hfCollectBench struct {
	seeds []uint64
	wl    kleb.Workload
}

// hfScript is the synthetic program kleb.Synthetic builds for the pass.
func hfScript() workload.Script {
	return workload.Synthetic{TotalInstr: hfInstr, Footprint: hfFootprint, RandomFrac: hfRandomFrac}.Script()
}

// setupHFCollect derives the sub-seeds, builds the workload and compiles
// its script, and boots the machine once.
func setupHFCollect(seed uint64, tr *tracer) (benchWorkload, error) {
	b := &hfCollectBench{}
	for k := 0; k < hfSubSeeds; k++ {
		b.seeds = append(b.seeds, session.DeriveSeed(seed, k))
	}
	end := tr.begin("workload.compile")
	b.wl = kleb.Synthetic(hfInstr, hfFootprint, hfRandomFrac)
	hfScript().Compile()
	end()
	end = tr.begin("machine.boot")
	machine.Boot(machine.Nehalem(), seed)
	end()
	return b, nil
}

// countingHash is an io.Writer that hashes and counts what it is given.
type countingHash struct {
	h hash.Hash
	n int64
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

func (b *hfCollectBench) pass(tr *tracer) passResult {
	var r passResult
	digest := sha256.New()
	var samplesOff, samplesOn int
	var secOff, secOn float64
	var traceBytes int64
	for _, seed := range b.seeds {
		opts := kleb.CollectOptions{
			Seed: seed, Workload: b.wl, Events: hfEvents, Period: hfPeriod, Tool: kleb.ToolKLEB,
		}
		end := tr.begin("pass.collect")
		t0 := hostNow()
		off, err := kleb.Collect(opts)
		secOff += seconds(t0, hostNow())
		end()
		r.op(fmt.Sprintf("collect seed %d", seed), err)
		if err != nil {
			continue
		}
		samplesOff += len(off.Samples)
		sumOff := sampleDigest(off)
		r.op(fmt.Sprintf("collect seed %d samples", seed), checkCollect(off, nil))

		trace := &countingHash{h: sha256.New()}
		var metrics bytes.Buffer
		opts.Trace, opts.Metrics = trace, &metrics
		end = tr.begin("pass.collect_telemetry")
		t0 = hostNow()
		on, err := kleb.Collect(opts)
		secOn += seconds(t0, hostNow())
		end()
		r.op(fmt.Sprintf("collect+telemetry seed %d", seed), err)
		if err != nil {
			continue
		}
		samplesOn += len(on.Samples)
		traceBytes += trace.n
		err = checkCollect(on, metrics.Bytes())
		if err == nil && sampleDigest(on) != sumOff {
			err = fmt.Errorf("samples differ from the telemetry-off run of the same seed")
		}
		r.op(fmt.Sprintf("collect+telemetry seed %d samples", seed), err)

		for _, part := range [][]byte{[]byte(sumOff), trace.h.Sum(nil), metrics.Bytes(), off.ControllerLog} {
			_, _ = digest.Write(part) // a hash.Hash never returns a write error
		}
	}
	rateOff := float64(samplesOff) / secOff
	rateOn := float64(samplesOn) / secOn
	r.rate = rateOff
	r.digest = hex.EncodeToString(digest.Sum(nil))
	r.figures = []figure{
		{"samples_per_s", "1/s", rateOff},
		{"samples_per_s_telemetry", "1/s", rateOn},
		{"telemetry_overhead_pct", "%", 100 * (rateOff/rateOn - 1)},
		{"samples", "count", float64(samplesOff)},
		{"trace_bytes", "B", float64(traceBytes)},
	}
	return r
}

// sampleDigest hashes a report's sample series (times and deltas).
func sampleDigest(rep *kleb.Report) string {
	h := sha256.New()
	var buf []byte
	for _, s := range rep.Samples {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(s.Time))
		for _, d := range s.Deltas {
			buf = binary.LittleEndian.AppendUint64(buf, d)
		}
		_, _ = h.Write(buf) // a hash.Hash never returns a write error
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkCollect verifies a K-LEB report: no dropped samples, a sample for
// at least 90% of the run's 100µs periods, and — when the run exported
// metrics — every sample the kernel ring captured was drained and
// delivered (captured = drained = delivered).
func checkCollect(rep *kleb.Report, metrics []byte) error {
	if rep.DroppedSamples > 0 {
		return fmt.Errorf("%d dropped samples", rep.DroppedSamples)
	}
	periods := float64(rep.Elapsed) / float64(hfPeriod)
	if float64(len(rep.Samples)) < 0.9*periods {
		return fmt.Errorf("%d samples over %.0f sampling periods", len(rep.Samples), periods)
	}
	if metrics == nil {
		return nil
	}
	captured, err := promValue(metrics, "kleb_samples_total")
	if err != nil {
		return err
	}
	drained, err := promValue(metrics, "kleb_ring_drained_total")
	if err != nil {
		return err
	}
	if n := uint64(len(rep.Samples)); captured != n || drained != n {
		return fmt.Errorf("ledger: captured %d, drained %d, delivered %d", captured, drained, n)
	}
	return nil
}

// promValue reads an unlabelled sample from a Prometheus exposition.
func promValue(expo []byte, name string) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("metric %s missing from the exposition", name)
}

func (b *hfCollectBench) inputs() layerInputs {
	script := hfScript()
	return layerInputs{
		scripts: []workload.Script{script},
		events:  hfEvents,
		profile: machine.Nehalem(),
		period:  hfPeriod,
		// The monitored run is the pass's first Collect, built as
		// kleb.Collect builds it.
		spec: session.Spec{
			Profile:    machine.Nehalem(),
			Seed:       b.seeds[0],
			TargetName: script.Name,
			NewTarget:  func() kernel.Program { return script.Program() },
			NewTool:    func() (monitor.Tool, error) { return klebtool.New(), nil },
			Config:     monitor.Config{Events: hfEvents, Period: hfPeriod, ExcludeKernel: true},
		},
	}
}
