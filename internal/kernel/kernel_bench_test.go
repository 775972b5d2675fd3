package kernel

import (
	"fmt"
	"testing"

	"kleb/internal/isa"
	"kleb/internal/ktime"
)

// Micro-benchmarks for the scheduler's hot path, gated same-host against
// the merge-base by scripts/bench_ab.sh: the sleeper storm is the
// regression gate's headline number (it is the shape that made table2
// O(P)-scan-bound before the unified event queue), the steady-state
// benchmark guards the zero-allocation execute loop, and the timer churn
// benchmark prices one full arm→fire→re-arm cycle. The NoAlloc tests at the
// end are the absolute zero-allocation gates on the same shapes.

// benchSleepers is the storm width: large enough that a per-event O(P)
// process scan dominates, small enough that the run queue stays realistic.
const benchSleepers = 64

// BenchmarkSleeperStorm drives benchSleepers processes through repeated
// 100µs HR sleeps; one op is one sleep→wake cycle. Every wakeup is a
// kernel event, so ns/op prices the nextEvent/fireDue path.
func BenchmarkSleeperStorm(b *testing.B) {
	k := testKernel(1)
	iters := b.N/benchSleepers + 1
	var sleep Op = OpSleep{D: 100 * ktime.Microsecond, HR: true} // preboxed: measure the kernel, not the program
	for i := 0; i < benchSleepers; i++ {
		count := 0
		k.Spawn(fmt.Sprintf("sleeper%02d", i), ProgramFunc(func(k *Kernel, p *Process) Op {
			count++
			if count > iters {
				return OpExit{}
			}
			return sleep
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerChurn prices the HR timer arm→fire→re-arm cycle with eight
// periodic timers live (the K-LEB + perf-mux shape); one op is one firing.
func BenchmarkTimerChurn(b *testing.B) {
	k := testKernel(2)
	fired := 0
	for i := 0; i < 8; i++ {
		k.StartHRTimer(10*ktime.Microsecond, 100*ktime.Microsecond, func(k *Kernel, t *HRTimer) bool {
			fired++
			return fired < b.N
		})
	}
	k.Spawn("spin", ProgramFunc(func(k *Kernel, p *Process) Op {
		if fired >= b.N {
			return OpExit{}
		}
		return OpExec{Block: workBlock(50_000)}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSteadyRunCurrent measures the pure execute loop: one process,
// no timers, no sleepers; one op is one instruction block through
// runCurrent/applyWork. The steady state must not allocate.
func BenchmarkSteadyRunCurrent(b *testing.B) {
	k := testKernel(3)
	n := 0
	var op Op = OpExec{Block: workBlock(10_000)}
	k.Spawn("spin", ProgramFunc(func(k *Kernel, p *Process) Op {
		n++
		if n > b.N {
			return OpExit{}
		}
		return op
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessTable prices one pid-ordered walk of a 384-entry process
// table, 256 exited and 128 live — the shape doExit's waiter scan and the
// Processes snapshot share since the table moved from a map to the
// pid-ascending byPID slice.
func BenchmarkProcessTable(b *testing.B) {
	k := testKernel(5)
	for i := 0; i < 256; i++ {
		k.Spawn(fmt.Sprintf("done%03d", i), burner(0, 0))
	}
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		k.Spawn(fmt.Sprintf("live%03d", i), burner(1, 1_000))
	}
	exited := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exited = 0
		for _, p := range k.Processes() {
			if p.Exited() {
				exited++
			}
		}
	}
	if exited != 256 {
		b.Fatalf("exited = %d, want 256", exited)
	}
}

// benchStream is the smallest possible BlockStream program: it emits `left`
// copies of one block, announcing the remaining run length so executeRun
// can batch stable memo replays exactly as a compiled workload phase does.
type benchStream struct {
	block isa.Block
	left  uint64
}

func (s *benchStream) Next(k *Kernel, p *Process) Op {
	if s.left == 0 {
		return OpExit{}
	}
	s.left--
	return OpExec{Block: s.block}
}

func (s *benchStream) PeekRun() (isa.Block, uint64) { return s.block, s.left }
func (s *benchStream) ConsumeRun(n uint64)          { s.left -= n }

// BenchmarkBlockExecute prices one block through the batched compiled-stream
// path: a BlockStream program whose blocks freeze into stable memo replays,
// so executeRun collapses whole timeslices into single priced units. One op
// is one block; ns/op is the amortized per-block cost the table2 win rests
// on (compare BenchmarkSteadyRunCurrent, the same shape unbatched).
func BenchmarkBlockExecute(b *testing.B) {
	k := testKernel(6)
	k.Spawn("stream", &benchStream{block: workBlock(10_000), left: uint64(b.N)})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// phaseStream cycles through a block mix in runs of runLen, the shape of a
// compiled multi-phase workload: batching works within a run, and every run
// boundary forces a real Next call and (on the first visits) a memo measure.
type phaseStream struct {
	blocks []isa.Block
	runLen uint64
	total  uint64 // blocks still to emit overall
	left   uint64 // copies of blocks[bi] still to emit
	bi     int
}

func (s *phaseStream) Next(k *Kernel, p *Process) Op {
	if s.total == 0 {
		return OpExit{}
	}
	if s.left == 0 {
		s.bi = (s.bi + 1) % len(s.blocks)
		s.left = s.runLen
	}
	s.left--
	s.total--
	return OpExec{Block: s.blocks[s.bi]}
}

func (s *phaseStream) PeekRun() (isa.Block, uint64) {
	n := s.left
	if n > s.total {
		n = s.total
	}
	return s.blocks[s.bi], n
}

func (s *phaseStream) ConsumeRun(n uint64) {
	s.left -= n
	s.total -= n
}

// BenchmarkSteadyPhase prices the compiled execution of a steady phase with
// a realistic block mix: compute-bound, memory-bound and branchy blocks
// alternating in runs of 64, so the figure blends stable replays with the
// run-boundary Next calls and warmth-class re-probes a real phase incurs.
func BenchmarkSteadyPhase(b *testing.B) {
	compute := workBlock(10_000)
	memory := workBlock(10_000)
	memory.Loads = 5_000
	memory.Mem = isa.MemPattern{Base: 0xB000_0000, Footprint: 8 << 20, Stride: 64, RandomFrac: 1}
	branchy := workBlock(10_000)
	branchy.Branches = 2_000
	k := testKernel(7)
	k.Spawn("phase", &phaseStream{
		blocks: []isa.Block{compute, memory, branchy},
		runLen: 64,
		total:  uint64(b.N),
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// TestSteadyRunCurrentNoAlloc is the hard zero-allocation gate on the
// steady-state scheduler loop: once warm, advancing a compute-bound
// process must not allocate at all. (Skipped under the race detector,
// which instruments allocations.)
func TestSteadyRunCurrentNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	k := testKernel(4)
	var op Op = OpExec{Block: workBlock(10_000)}
	k.Spawn("spin", ProgramFunc(func(k *Kernel, p *Process) Op { return op }))
	checkWarmNoAlloc(t, k, "steady-state runCurrent")
}

// TestSleeperStormNoAlloc is the zero-allocation gate on the sleeper
// storm's shape: once warm, a sleep→wake cycle through the unified event
// queue must not allocate.
func TestSleeperStormNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	k := testKernel(1)
	var sleep Op = OpSleep{D: 100 * ktime.Microsecond, HR: true}
	for i := 0; i < benchSleepers; i++ {
		k.Spawn(fmt.Sprintf("sleeper%02d", i), ProgramFunc(func(k *Kernel, p *Process) Op { return sleep }))
	}
	checkWarmNoAlloc(t, k, "warm sleep→wake cycle")
}

// TestBlockExecuteNoAlloc is the zero-allocation gate on the batched
// compiled-stream path: once warm, a timeslice of stable memo replays
// collapsed by executeRun must not allocate.
func TestBlockExecuteNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	b := workBlock(10_000)
	k := testKernel(6)
	k.Spawn("stream", preboxedStream{&benchStream{block: b, left: 1 << 40}, OpExec{Block: b}})
	checkWarmNoAlloc(t, k, "warm batched timeslice")
}

// checkWarmNoAlloc runs k for one simulated millisecond to warm it up
// (first blocks grow the pending queue and cache cursors, sleepers sleep
// and wake once, memo entries freeze into stable replays), then fails t
// if any further millisecond allocates.
func checkWarmNoAlloc(t *testing.T, k *Kernel, what string) {
	t.Helper()
	cursor := ktime.Time(0)
	step := func() {
		cursor = cursor.Add(ktime.Millisecond)
		if err := k.RunUntil(cursor); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Errorf("%s allocates %v allocs/op, want 0", what, avg)
	}
}

// preboxedStream is a benchStream whose Next returns one preboxed op, so
// an allocation gate counts the kernel's allocations and not the boxing of
// the test program's OpExec at each timeslice start.
type preboxedStream struct {
	*benchStream
	op Op
}

func (s preboxedStream) Next(k *Kernel, p *Process) Op {
	if s.left == 0 {
		return OpExit{}
	}
	s.left--
	return s.op
}
