package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// This file is the batched-execution equivalence gate (DESIGN.md §13): the
// run-length pricing in Kernel.executeRun may only change host time, never
// a simulated observable. The reference is the same run stepped one block
// at a time: the target program is wrapped so the kernel cannot see its
// kernel.BlockStream side and must price every block through its own Next
// call. The spec matrix mirrors the paper artifacts (table2, fig6, the
// rate sweep, the multiplex sweep) plus the request-serving workload, whose
// checkpoint cadence is a batching boundary of its own.

// instrumentableProgram is what every target in the matrix is: a kernel
// program PAPI and LiMiT can instrument.
type instrumentableProgram interface {
	kernel.Program
	workload.Instrumentable
}

// steppedProgram forwards Next and the instrumentation seam but not
// PeekRun/ConsumeRun, so Kernel.executeRun never batches its blocks.
type steppedProgram struct{ instrumentableProgram }

// steppedCase is one run of the matrix: a spec without a target factory,
// plus the target it runs — script, or serve when set.
type steppedCase struct {
	name   string
	spec   session.Spec
	script workload.Script
	serve  *workload.Serve
}

// program builds the case's target program.
func (c steppedCase) program() kernel.Program {
	if c.serve != nil {
		return c.serve.Program(c.spec.Seed)
	}
	return c.script.Program()
}

// steppedRun is one run's observables.
type steppedRun struct {
	res   *session.Result
	serve *workload.ServeStats // nil unless the target serves requests
}

// runCases executes specs on a pool of workers, stepped or batched, and
// returns each run's observables in spec order.
func runCases(t *testing.T, cases []steppedCase, workers int, stepped bool) []steppedRun {
	t.Helper()
	runs := make([]steppedRun, len(cases))
	specs := make([]session.Spec, len(cases))
	for i, c := range cases {
		specs[i] = c.spec
		specs[i].NewTarget = func() kernel.Program {
			p := c.program()
			if sp, ok := p.(*workload.ServeProgram); ok {
				runs[i].serve = sp.Stats()
			}
			if stepped {
				return steppedProgram{p.(instrumentableProgram)}
			}
			return p
		}
	}
	for i, o := range (session.Scheduler{Workers: workers}).Run(specs) {
		if o.Err != nil {
			t.Fatalf("%s (workers=%d, stepped=%v): %v", cases[i].name, workers, stepped, o.Err)
		}
		runs[i].res = o.Run
	}
	return runs
}

// diffRun reports how a batched run's observables differ from the stepped
// reference ("" when they are identical).
func diffRun(got, want steppedRun) string {
	g, w := got.res, want.res
	switch {
	case g.Elapsed != w.Elapsed:
		return fmt.Sprintf("Elapsed %v, stepped %v", g.Elapsed, w.Elapsed)
	case g.TargetUser != w.TargetUser:
		return fmt.Sprintf("TargetUser %v, stepped %v", g.TargetUser, w.TargetUser)
	case g.TargetKern != w.TargetKern:
		return fmt.Sprintf("TargetKern %v, stepped %v", g.TargetKern, w.TargetKern)
	case !reflect.DeepEqual(g.Result, w.Result):
		return fmt.Sprintf("monitor result: totals %v over %d samples, stepped %v over %d samples",
			g.Result.Totals, len(g.Result.Samples), w.Result.Totals, len(w.Result.Samples))
	case !reflect.DeepEqual(got.serve, want.serve):
		return fmt.Sprintf("serve stats: %s; stepped %s", serveSummary(got.serve), serveSummary(want.serve))
	}
	// perf record's sample count lives on the tool, not in its Result.
	type sampler interface{ SampleCount() int }
	if gs, ok := g.Tool.(sampler); ok {
		if gn, wn := gs.SampleCount(), w.Tool.(sampler).SampleCount(); gn != wn {
			return fmt.Sprintf("SampleCount %d, stepped %d", gn, wn)
		}
	}
	return ""
}

// serveSummary condenses serving stats for a failure message. It reads no
// quantile: Quantile sorts the observations in place, which would perturb
// the reference for the next comparison.
func serveSummary(st *workload.ServeStats) string {
	return fmt.Sprintf("%d arrived, %d completed, peak %d in flight, mean latency %.0fns",
		st.Arrivals, st.Completed, st.PeakInFlight, st.Latency.Mean())
}

// checkBatchedMatchesStepped runs cases stepped and serially, then batched
// at 1 and 8 workers, and requires every run's observables to match the
// stepped reference exactly. It returns the reference runs.
func checkBatchedMatchesStepped(t *testing.T, cases []steppedCase) []steppedRun {
	t.Helper()
	ref := runCases(t, cases, 1, true)
	for _, workers := range []int{1, 8} {
		for i, got := range runCases(t, cases, workers, false) {
			if d := diffRun(got, ref[i]); d != "" {
				t.Errorf("%s, batched on %d workers: %s", cases[i].name, workers, d)
			}
		}
	}
	return ref
}

// monitored builds a spec monitored by kind.
func monitored(kind ToolKind, points int, seed uint64, events []isa.Event, period ktime.Duration) session.Spec {
	return session.Spec{
		Profile: ProfileFor(kind),
		Seed:    seed,
		NewTool: toolFactory(kind, points),
		Config:  monitor.Config{Events: events, Period: period, ExcludeKernel: true},
	}
}

// TestBatchedMatchesStepped is the proof obligation behind batched
// execution. To check a suspected executor bug, add the suspect spec to
// the matching group below (or a new group) and run
// go test -run BatchedMatchesStepped ./internal/experiments.
func TestBatchedMatchesStepped(t *testing.T) {
	if testing.Short() {
		t.Skip("stepped reference runs in -short mode")
	}
	seeds := []uint64{1, 1 + 7919} // RunOverhead's first two trial seeds

	t.Run("table2", func(t *testing.T) {
		// Bare runs on both profiles, then all five tools at 10ms with the
		// strategic-point count sized from the same-seed, same-profile bare
		// run.
		script := workload.NewTripleLoopMatmul().Script()
		profiles := []machine.Profile{machine.Nehalem(), machine.LiMiTKernel()}
		var bare []steppedCase
		for _, prof := range profiles {
			for _, seed := range seeds {
				bare = append(bare, steppedCase{name: fmt.Sprintf("bare/%s/seed%d", prof.Name, seed),
					spec: session.Spec{Profile: prof, Seed: seed}, script: script})
			}
		}
		ref := checkBatchedMatchesStepped(t, bare)
		var cases []steppedCase
		for _, kind := range AllTools() {
			pi := 0
			if ProfileFor(kind).Name != profiles[0].Name {
				pi = 1
			}
			for si, seed := range seeds {
				points := pointsFor(ref[pi*len(seeds)+si].res.Elapsed, 10*ktime.Millisecond)
				cases = append(cases, steppedCase{name: fmt.Sprintf("%s/seed%d", kind, seed),
					spec: monitored(kind, points, seed, defaultEvents(), 10*ktime.Millisecond), script: script})
			}
		}
		checkBatchedMatchesStepped(t, cases)
	})

	t.Run("fig6", func(t *testing.T) {
		m := workload.NewMeltdown()
		events := []isa.Event{isa.EvLLCRefs, isa.EvLLCMisses, isa.EvInstructions}
		var cases []steppedCase
		for _, side := range []struct {
			name   string
			script workload.Script
		}{{"victim", m.VictimScript()}, {"attack", m.AttackScript()}} {
			for round := uint64(0); round < 5; round++ {
				cases = append(cases, steppedCase{name: fmt.Sprintf("%s/round%d", side.name, round),
					spec: monitored(KLEB, 0, 1+round*31337, events, 100*ktime.Microsecond), script: side.script})
			}
		}
		checkBatchedMatchesStepped(t, cases)
	})

	t.Run("sweep", func(t *testing.T) {
		script := workload.Synthetic{Name: "sweep-target", TotalInstr: 1_000_000_000, Footprint: 256 << 10}.Script()
		var cases []steppedCase
		for _, seed := range seeds {
			cases = append(cases, steppedCase{name: fmt.Sprintf("bare/seed%d", seed),
				spec: session.Spec{Profile: ProfileFor(KLEB), Seed: seed}, script: script})
			for _, kind := range []ToolKind{KLEB, PerfStat} {
				for _, period := range []ktime.Duration{100 * ktime.Microsecond, ktime.Millisecond, 10 * ktime.Millisecond} {
					cases = append(cases, steppedCase{name: fmt.Sprintf("%s/%v/seed%d", kind, period, seed),
						spec: monitored(kind, 0, seed, defaultEvents(), period), script: script})
				}
			}
		}
		checkBatchedMatchesStepped(t, cases)
	})

	t.Run("multiplex", func(t *testing.T) {
		// perf stat over each whole mix (N=4 fits the counters, 6 and 8
		// rotate) and K-LEB over each counter-sized chunk.
		script := workload.NewTripleLoopMatmul().Script()
		pool := multiplexPool()
		var cases []steppedCase
		for _, n := range []int{4, 6, 8} {
			events := pool[:n]
			cases = append(cases, steppedCase{name: fmt.Sprintf("N=%d/perf-stat", n),
				spec: monitored(PerfStat, 0, seeds[0], events, 10*ktime.Millisecond), script: script})
			for lo := 0; lo < n; lo += 4 {
				hi := min(lo+4, n)
				cases = append(cases, steppedCase{name: fmt.Sprintf("N=%d/kleb[%d:%d]", n, lo, hi),
					spec: monitored(KLEB, 0, seeds[0], events[lo:hi], 10*ktime.Millisecond), script: script})
			}
		}
		checkBatchedMatchesStepped(t, cases)
	})

	t.Run("serve", func(t *testing.T) {
		// The open-loop serving workload: its capacity checkpoints cap
		// every batch, and a misplaced checkpoint shows in the stats.
		model := workload.NewServe()
		ref := checkBatchedMatchesStepped(t, []steppedCase{{name: "bare",
			spec: session.Spec{Profile: machine.Nehalem(), Seed: seeds[0], TargetName: model.Name}, serve: &model}})
		points := pointsFor(ref[0].res.Elapsed, 10*ktime.Millisecond)
		var cases []steppedCase
		for _, kind := range []ToolKind{KLEB, PAPI} {
			spec := monitored(kind, points, seeds[0], defaultEvents(), 10*ktime.Millisecond)
			spec.TargetName = model.Name
			cases = append(cases, steppedCase{name: string(kind), spec: spec, serve: &model})
		}
		checkBatchedMatchesStepped(t, cases)
	})
}
