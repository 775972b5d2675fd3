package main

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"kleb/internal/cache"
	"kleb/internal/cpu"
	"kleb/internal/fleet"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/pmu"
	"kleb/internal/session"
	"kleb/internal/telemetry"
	"kleb/internal/workload"
)

// layerInputs are what the per-layer probes take from a workload, so
// each layer is measured on the work that workload gives it.
type layerInputs struct {
	// scripts are the programs the workload runs.
	scripts []workload.Script
	// events is its monitoring request (the K-LEB counter shape).
	events []isa.Event
	// profile is the machine it monitors on.
	profile machine.Profile
	// period is its sampling period; it also bounds the CPU probe's
	// batches, as the sampling timer bounds the kernel's.
	period ktime.Duration
	// spec is one representative monitored run under K-LEB.
	spec session.Spec
}

// probes calls each layer's public functions with a workload's inputs
// and records the per-layer metrics. Each probe's time is one span.
type probes struct {
	in                layerInputs
	seed              uint64
	tr                *tracer
	m                 map[string]metric
	attempted, failed int

	// costs are the priced batches the CPU probe produced, replayed into
	// the PMU probe.
	costs []cpu.Costed
}

func (d *probes) set(name string, v float64, unit string) { d.m[name] = metric{v, unit} }

// op counts one checked operation of a probe.
func (d *probes) op(what string, err error) {
	d.attempted++
	if err != nil {
		d.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s: %v\n", what, err)
	}
}

func (d *probes) runAll() {
	d.workloadCompile()
	d.machineBoot()
	d.cacheBracket()
	d.cacheAccess()
	d.cpuExecuteRun()
	d.pmuAddCounts()
	d.sessionStages()
	d.telemetryEmit()
	d.fleetRun()
}

// repeatFor calls fn at least least times and until budget host seconds
// have passed, returning each call's seconds.
func repeatFor(least int, budget float64, fn func()) []float64 {
	var out []float64
	start := hostNow()
	for len(out) < least || seconds(start, hostNow()) < budget {
		t0 := hostNow()
		fn()
		out = append(out, seconds(t0, hostNow()))
	}
	return out
}

// workloadCompile lowers every script of the workload to its compiled
// block stream.
func (d *probes) workloadCompile() {
	defer d.tr.begin("workload.compile")()
	t := repeatFor(20, 0.2, func() {
		for _, s := range d.in.scripts {
			s.Compile()
		}
	})
	d.set("workload.compile_ms", 1e3*median(t), "ms")
}

// machineBoot boots both of the paper's machines.
func (d *probes) machineBoot() {
	defer d.tr.begin("machine.boot")()
	for _, p := range []struct {
		key  string
		prof machine.Profile
	}{{"nehalem", machine.Nehalem()}, {"cascadelake", machine.CascadeLake()}} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := repeatFor(10, 0.3, func() { machine.Boot(p.prof, d.seed) })
		runtime.ReadMemStats(&after)
		d.set("machine."+p.key+".boot_ms", 1e3*median(t), "ms")
		d.set("machine."+p.key+".boot_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(t))/(1<<20), "MB")
	}
}

// cacheBracket times one Save+Restore of a booted machine's L1D, L2 and
// LLC — the bracket around every memoized block measurement.
func (d *probes) cacheBracket() {
	defer d.tr.begin("cache.bracket")()
	h := machine.Boot(d.in.profile, d.seed).Core().Caches()
	levels := []*cache.Cache{h.L1D(), h.L2(), h.LLC()}
	states := make([]cache.State, len(levels))
	var bytes uint64
	for _, c := range levels {
		cfg := c.Config()
		bytes += 2 * 16 * (cfg.Size / cfg.LineSize) // tags+ages, saved then restored
	}
	const reps = 20
	t := repeatFor(5, 0.2, func() {
		for i := 0; i < reps; i++ {
			for j, c := range levels {
				c.Save(&states[j])
			}
			for j, c := range levels {
				c.Restore(&states[j])
			}
		}
	})
	d.set("cache.bracket_ns", 1e9*median(t)/reps, "ns")
	d.set("cache.bracket_bytes", float64(bytes), "B")
}

// accessCount is how many addresses the cache probe generates.
const accessCount = 1 << 18

// addresses generates data addresses from the scripts' memory patterns,
// each phase weighted by its loads and stores: a stride walk over the
// footprint with RandomFrac of the accesses drawn uniformly from it.
func addresses(scripts []workload.Script, line uint64, rng *ktime.Rand) []uint64 {
	type pat struct {
		mem    isa.MemPattern
		weight uint64
	}
	var pats []pat
	var total uint64
	for _, s := range scripts {
		for _, ph := range s.Phases {
			w := ph.TotalInstr / 1000 * (ph.LoadsPerK + ph.StoresPerK)
			if w > 0 {
				pats = append(pats, pat{ph.Mem, w})
				total += w
			}
		}
	}
	out := make([]uint64, 0, accessCount)
	for _, p := range pats {
		n := uint64(float64(accessCount) * float64(p.weight) / float64(total))
		fp, stride := p.mem.Footprint, p.mem.Stride
		if fp == 0 {
			fp = 4096
		}
		if stride == 0 {
			stride = line
		}
		var cur uint64
		for i := uint64(0); i < n; i++ {
			if rng.Float64() < p.mem.RandomFrac {
				out = append(out, p.mem.Base+rng.Uint64n(fp))
				continue
			}
			out = append(out, p.mem.Base+cur)
			cur = (cur + stride) % fp
		}
	}
	return out
}

// cacheAccess times Hierarchy.Access over the workload's addresses on a
// hierarchy already warmed by one untimed sweep.
func (d *probes) cacheAccess() {
	defer d.tr.begin("cache.access")()
	cfg := d.in.profile.CPU.Hierarchy
	addrs := addresses(d.in.scripts, cfg.L1D.LineSize, ktime.NewRand(d.seed))
	h := cache.NewHierarchy(cfg)
	sweep := func() {
		for _, a := range addrs {
			h.Access(a)
		}
	}
	sweep()
	t := repeatFor(3, 0.2, sweep)
	d.set("cache.access_ns", 1e9*median(t)/float64(len(addrs)), "ns")
}

// maxCosts bounds how many priced batches the CPU probe keeps for the
// PMU probe.
const maxCosts = 1 << 16

// cpuExecuteRun drives each script's compiled stream through the core the
// way the kernel's batch executor does: PeekRun for the identical copies
// ahead, ExecuteRun to price one and learn whether it is a stable replay,
// then ConsumeRun/AdvanceReplays for the batched rest, with batches capped
// at one sampling period of virtual time.
func (d *probes) cpuExecuteRun() {
	defer d.tr.begin("cpu.execute_run")()
	var calls, blocks, stable uint64
	var t []float64
	start := hostNow()
	for len(t) < 3 || seconds(start, hostNow()) < 0.5 {
		calls, blocks, stable = 0, 0, 0
		d.costs = d.costs[:0]
		core := machine.Boot(d.in.profile, d.seed).Core() // fresh memo state, untimed
		t0 := hostNow()
		for _, s := range d.in.scripts {
			prog := s.Program()
			for {
				op := prog.Next(nil, nil)
				ex, ok := op.(kernel.OpExec)
				if !ok {
					break // a plain script emits only blocks, then exits
				}
				b := ex.Block
				limit := uint64(1)
				if nb, avail := prog.PeekRun(); avail > 0 && nb == b {
					limit += avail
				}
				cost, n := core.ExecuteRun(b, limit)
				if n > 1 {
					stable++
				}
				if n > 1 && cost.Time > 0 {
					n = min(n, max(1, uint64(d.in.period)/uint64(cost.Time)))
				}
				calls++
				blocks += n
				if n > 1 {
					core.AdvanceReplays(b, n-1)
					prog.ConsumeRun(n - 1)
					cost.Counts = cost.Counts.Mul(n)
				}
				if len(d.costs) < maxCosts {
					d.costs = append(d.costs, cost)
				}
			}
		}
		t = append(t, seconds(t0, hostNow()))
	}
	d.set("cpu.ns_per_block", 1e9*median(t)/float64(blocks), "ns")
	d.set("cpu.blocks_per_call", float64(blocks)/float64(calls), "count")
	d.set("cpu.stable_call_frac", float64(stable)/float64(calls), "ratio")
	d.set("cpu.execute_run_calls", float64(calls), "count")
}

// pmuAddCounts programs the PMU as the K-LEB module does for the
// workload's events (the scheduler's first round, user-mode counting) and
// times AddCounts over the CPU probe's priced batches.
func (d *probes) pmuAddCounts() {
	defer d.tr.begin("pmu.add_counts")()
	p := machine.Boot(d.in.profile, d.seed).Core().PMU()
	err := programKLEB(p, d.in.events)
	d.op("pmu programming", err)
	if err != nil || len(d.costs) == 0 {
		return
	}
	t := repeatFor(5, 0.2, func() {
		for _, c := range d.costs {
			p.AddCounts(c.Counts, c.Priv)
		}
	})
	d.set("pmu.add_counts_ns", 1e9*median(t)/float64(len(d.costs)), "ns")
}

// programKLEB writes the event selectors, fixed-counter control and global
// enable for the first scheduling round of events.
func programKLEB(p *pmu.PMU, events []isa.Event) error {
	sched, err := p.Table().Schedule(events)
	if err != nil {
		return err
	}
	var fixedCtrl, global uint64
	for _, a := range sched.Rounds[0] {
		switch a.Class {
		case pmu.CtrProgrammable:
			enc, _ := p.Table().EncodingFor(a.Event) // scheduled events have encodings
			if err := p.WriteMSR(pmu.MSRPerfEvtSel0+uint32(a.Counter), enc.Sel(pmu.SelUsr|pmu.SelEn)); err != nil {
				return err
			}
			global |= 1 << uint(a.Counter)
		case pmu.CtrFixed:
			fixedCtrl |= pmu.FixedUsr << uint(4*a.Counter)
			global |= 1 << uint(32+a.Counter)
		default:
			return fmt.Errorf("event %v needs an uncore counter", a.Event)
		}
	}
	if err := p.WriteMSR(pmu.MSRFixedCtrCtrl, fixedCtrl); err != nil {
		return err
	}
	return p.WriteMSR(pmu.MSRGlobalCtrl, global)
}

// sessionStages runs the workload's monitored spec through session.New
// stage by stage, then the same run bare and with full telemetry. It
// checks the K-LEB ledger of every monitored run.
func (d *probes) sessionStages() {
	var boot, attach, drive, drain, bare, driveTel, export []float64
	var samples uint64
	// A run capped by Limit can end before the controller's first drain,
	// so only uncapped runs must deliver every captured sample.
	delivers := d.in.spec.Limit == 0
	end := d.tr.begin("session.stages")
	repeatFor(3, 1, func() {
		s := session.New(d.in.spec)
		t0 := hostNow()
		_, err := s.Boot()
		t1 := hostNow()
		if err == nil {
			err = s.Attach()
		}
		t2 := hostNow()
		if err == nil {
			err = s.Drive()
		}
		t3 := hostNow()
		d.op("session run", err)
		if err != nil {
			return
		}
		res := s.Drain()
		t4 := hostNow()
		boot = append(boot, seconds(t0, t1))
		attach = append(attach, seconds(t1, t2))
		drive = append(drive, seconds(t2, t3))
		drain = append(drain, seconds(t3, t4))
		samples = res.Result.Captured
		d.op("session ledger", checkLedger(res.Result, delivers))
	})
	end()

	end = d.tr.begin("session.bare")
	spec := d.in.spec
	spec.NewTool, spec.Config = nil, monitor.Config{}
	repeatFor(3, 0.5, func() {
		s := session.New(spec)
		err := s.Attach()
		t0 := hostNow()
		if err == nil {
			err = s.Drive()
		}
		d.op("bare session run", err)
		if err == nil {
			bare = append(bare, seconds(t0, hostNow()))
		}
	})
	end()

	end = d.tr.begin("telemetry.session")
	repeatFor(3, 0.5, func() {
		spec := d.in.spec
		spec.Telemetry = telemetry.New()
		s := session.New(spec)
		err := s.Attach()
		t0 := hostNow()
		if err == nil {
			err = s.Drive()
		}
		t1 := hostNow()
		if err == nil {
			err = checkLedger(s.Drain().Result, delivers)
		}
		if err == nil {
			err = spec.Telemetry.WriteChromeTrace(io.Discard)
		}
		if err == nil {
			err = spec.Telemetry.WritePrometheus(io.Discard)
		}
		d.op("telemetry session run", err)
		if err == nil {
			driveTel = append(driveTel, seconds(t0, t1))
			export = append(export, seconds(t1, hostNow()))
		}
	})
	end()

	d.set("session.boot_s", median(boot), "s")
	d.set("session.attach_s", median(attach), "s")
	d.set("session.drive_s", median(drive), "s")
	d.set("session.drain_s", median(drain), "s")
	d.set("session.drive_bare_s", median(bare), "s")
	d.set("kleb.samples", float64(samples), "count")
	d.set("kleb.ns_per_sample", 1e9*(median(drive)-median(bare))/float64(max(samples, 1)), "ns")
	d.set("telemetry.export_s", median(export), "s")
	d.set("telemetry.overhead_pct", 100*(median(driveTel)/median(drive)-1), "%")
}

// checkLedger requires a balanced K-LEB period ledger with no dropped
// period and at least one capture; with delivers set, every captured
// sample must also have reached the controller.
func checkLedger(r monitor.Result, delivers bool) error {
	if r.Fires != r.Captured+r.Dropped+r.LostToFault {
		return fmt.Errorf("ledger unbalanced: fires %d != captured %d + dropped %d + lost %d",
			r.Fires, r.Captured, r.Dropped, r.LostToFault)
	}
	if r.Dropped > 0 || r.Captured == 0 || (delivers && r.Captured != uint64(len(r.Samples))) {
		return fmt.Errorf("ledger: %d dropped, %d captured, %d delivered", r.Dropped, r.Captured, len(r.Samples))
	}
	return nil
}

// emitCount is how many sample-capture events the telemetry probe emits.
const emitCount = 1 << 17

// telemetryEmit emits sample-capture events, one per sampling period of
// the workload, into a fresh tracing sink.
func (d *probes) telemetryEmit() {
	defer d.tr.begin("telemetry.emit")()
	t := repeatFor(3, 0.2, func() {
		sink := telemetry.New()
		for i := 0; i < emitCount; i++ {
			sink.SampleCaptured(ktime.Time(uint64(i)*uint64(d.in.period)), i%64, 4096)
		}
	})
	d.set("telemetry.emit_ns", 1e9*median(t)/emitCount, "ns")
}

// fleetRun runs a small fleet on min(2, CPUs) shards with the workload's
// machine profile and sampling period, sampling Status while it runs for
// the shards' lead over the fold watermark.
func (d *probes) fleetRun() {
	defer d.tr.begin("fleet.run")()
	cfg := fleet.Config{
		Nodes: 16, Shards: min(2, runtime.NumCPU()), Seed: d.seed, Rounds: 4,
		FaultEvery: fleetFaultEvery, ClusterEvery: fleetClusterEvery,
		Profile: d.in.profile, Period: d.in.period,
	}
	f := fleet.New(cfg)
	t0 := hostNow()
	err := f.Start()
	d.op("fleet start", err)
	if err != nil {
		return
	}
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	var lagMax uint64
	for running := true; running; {
		select {
		case err = <-done:
			running = false
		default:
			for _, l := range f.Status().ShardLag {
				lagMax = max(lagMax, l)
			}
			pause()
		}
	}
	dt := seconds(t0, hostNow())
	d.op("fleet run", err)
	st := f.Status()
	d.op("fleet ledger", checkFleetStatus(st, f.Config()))
	snap := repeatFor(5, 0.1, func() {
		s, err := f.Snapshot()
		if err == nil {
			err = s.WritePrometheus(io.Discard)
		}
		if err != nil {
			d.op("fleet snapshot", err)
		}
	})
	d.set("fleet.merge_p50_ns", float64(st.MergeP50Ns), "ns")
	d.set("fleet.merge_p99_ns", float64(st.MergeP99Ns), "ns")
	d.set("fleet.shard_lag_max", float64(lagMax), "rounds")
	d.set("fleet.snapshot_ms", 1e3*median(snap), "ms")
	d.set("fleet.node_round_ms", 1e3*dt*float64(cfg.Shards)/float64(max(st.NodeRounds, 1)), "ms")
	d.set("fleet.degraded_frac", float64(st.DegradedRounds)/float64(max(st.NodeRounds, 1)), "ratio")
}
