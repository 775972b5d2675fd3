package cpu_test

import (
	"testing"

	"kleb/internal/cpu"
	"kleb/internal/isa"
	"kleb/internal/machine"
	"kleb/internal/workload"
)

// paperBlocks returns the distinct blocks of the paper scripts: both
// matmul variants, every Docker image, the Meltdown victim and attack, and
// the serve workload.
func paperBlocks() []isa.Block {
	scripts := []workload.Script{
		workload.NewTripleLoopMatmul().Script(),
		workload.NewDgemmMatmul().Script(),
		workload.NewMeltdown().VictimScript(),
		workload.NewMeltdown().AttackScript(),
		workload.NewServe().Script(),
	}
	for _, img := range workload.Images() {
		scripts = append(scripts, img.Script())
	}
	seen := make(map[isa.Block]bool)
	var out []isa.Block
	for _, s := range scripts {
		for _, r := range s.Compile().Runs {
			if !seen[r.Block] {
				seen[r.Block] = true
				out = append(out, r.Block)
			}
		}
	}
	return out
}

// maxWarmup bounds the raw executions it takes a block's walk to become
// warm enough for the memo; the largest Docker footprint needs a few
// hundred.
const maxWarmup = 2000

// executeChecked executes b on cores[i] once and, when the execution goes
// through the memo path, fails t unless every core's L1D, L2, LLC and TLB
// are exactly as before. It reports whether the execution was checked.
func executeChecked(t *testing.T, cores []*cpu.Core, i int, b isa.Block) bool {
	t.Helper()
	if !cores[i].Memoizable(b) {
		cores[i].Execute(b)
		return false
	}
	before := make([]cpu.MemState, len(cores))
	for j, c := range cores {
		before[j] = c.MemState()
	}
	cores[i].Execute(b)
	for j, c := range cores {
		if d := c.MemDiff(before[j]); d != "" {
			t.Fatalf("core %d's Execute of %+v changed core %d's %s", i, b, j, d)
		}
	}
	return true
}

// TestMeasureBracketLeavesNoTrace is the memo bracket's oracle: every
// Execute that measures through the bracket (or replays) leaves the
// core's caches and TLB exactly as it found them, for every block of the
// paper's scripts on both machine profiles. Blocks are run until their
// first MemoConfidence+1 memo executions have been checked, so each
// state class is measured in the bracket before it replays; a context
// switch between blocks sends the next block through the pollution
// classes too.
func TestMeasureBracketLeavesNoTrace(t *testing.T) {
	for _, prof := range []machine.Profile{machine.Nehalem(), machine.CascadeLake()} {
		core := machine.Boot(prof, 1).Core()
		cores := []*cpu.Core{core}
		for _, b := range paperBlocks() {
			checked := 0
			for n := 0; n < maxWarmup && checked <= cpu.MemoConfidence; n++ {
				if executeChecked(t, cores, 0, b) {
					checked++
				}
			}
			if checked == 0 && b.Flushes == 0 {
				t.Errorf("%s: block %+v never reached the memo bracket", prof.Name, b)
			}
			core.OnContextSwitch(0.3, 0.1, 0.02)
		}
	}
}

// TestMeasureBracketSharedLLC runs the oracle on a two-core cluster: each
// core's bracket journals the shared LLC, and neither core's probe may
// leave a trace in its own or its sibling's state.
func TestMeasureBracketSharedLLC(t *testing.T) {
	cl := machine.BootCluster(machine.Nehalem(), 1, 2)
	cores := []*cpu.Core{cl.Cores()[0].Core(), cl.Cores()[1].Core()}
	mysql, _ := workload.ImageByName("mysql")
	blocks := []isa.Block{
		workload.NewServe().Script().Compile().Runs[0].Block,
		mysql.Script().Compile().Runs[0].Block,
	}
	var checked [2]int
	for round := 0; round < 40; round++ {
		for i := range cores {
			for n := 0; n < 5; n++ {
				if executeChecked(t, cores, i, blocks[i]) {
					checked[i]++
				}
			}
		}
	}
	for i, n := range checked {
		if n == 0 {
			t.Errorf("core %d never reached the memo bracket", i)
		}
	}
}

// BenchmarkMeasureBracket times the memo's bracketed probe on Nehalem
// geometry for the two pre-warm-dominated cases: a serve block, whose
// 4 MB footprint is pre-warmed into the LLC, and a Synthetic block with
// the default 1 MB footprint. One op is one probe of each.
func BenchmarkMeasureBracket(b *testing.B) {
	core := machine.Boot(machine.Nehalem(), 1).Core()
	blocks := []isa.Block{
		workload.NewServe().Script().Compile().Runs[0].Block,
		workload.Synthetic{TotalInstr: 1 << 30}.Script().Compile().Runs[0].Block,
	}
	for _, blk := range blocks {
		for n := 0; n < maxWarmup && !core.Memoizable(blk); n++ {
			core.Execute(blk)
		}
		if !core.Memoizable(blk) {
			b.Fatalf("block %+v never warmed up", blk)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			probeSink = core.Probe(blk)
		}
	}
}

// probeSink keeps BenchmarkMeasureBracket's results live.
var probeSink cpu.Costed
