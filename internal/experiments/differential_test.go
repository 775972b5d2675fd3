package experiments

import (
	"bytes"
	"testing"

	"kleb/internal/ktime"
	"kleb/internal/workload"
)

// This file is the compiled-execution equivalence gate (DESIGN.md §13): the
// batched block-stream path must render every paper artifact byte-identical
// to the legacy per-step interpreter, at every worker count. The experiment
// set is a representative one (table2, fig6, sweep) plus multiplex, each
// scaled down so the legacy runs stay CI-sized; equality of the *rendered*
// artifacts covers totals, per-tool sample counts, time series and the
// derived statistics in one comparison.

// differentialCases names each artifact and how to render it.
var differentialCases = []struct {
	name   string
	render func(t *testing.T, workers int) []byte
}{
	{"table2", func(t *testing.T, workers int) []byte {
		t.Helper()
		res, err := RunOverhead(OverheadConfig{Workload: WorkloadTriple, Trials: 2, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.Bytes()
	}},
	{"fig6", func(t *testing.T, workers int) []byte {
		t.Helper()
		res, err := RunMeltdown(MeltdownConfig{Rounds: 5, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.Bytes()
	}},
	{"sweep", func(t *testing.T, workers int) []byte {
		t.Helper()
		res, err := RunSweep(SweepConfig{
			Periods: []ktime.Duration{100 * ktime.Microsecond, ktime.Millisecond, 10 * ktime.Millisecond},
			Trials:  2, Seed: 1, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.Bytes()
	}},
	{"multiplex", func(t *testing.T, workers int) []byte {
		t.Helper()
		res, err := RunMultiplex(MultiplexConfig{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.Bytes()
	}},
}

// TestCompiledMatchesLegacyExec renders each artifact once under the legacy
// interpreter (serial: the reference) and then under the compiled path at
// 1, 2 and 8 workers, requiring byte equality throughout. This is the proof
// obligation behind every batching shortcut the compiled path takes: memo
// replays, run-length pricing and idle fast-forward may only ever change
// wall-clock time, never a simulated observable.
func TestCompiledMatchesLegacyExec(t *testing.T) {
	if testing.Short() {
		t.Skip("legacy interpreter runs in -short mode")
	}
	if workload.LegacyExec() {
		t.Fatal("legacy exec already on at test entry")
	}
	for _, tc := range differentialCases {
		t.Run(tc.name, func(t *testing.T) {
			workload.SetLegacyExec(true)
			ref := tc.render(t, 1) //klebvet:allow emitguard -- every differentialCases entry sets render
			workload.SetLegacyExec(false)
			for _, workers := range []int{1, 2, 8} {
				if got := tc.render(t, workers); !bytes.Equal(got, ref) { //klebvet:allow emitguard -- every differentialCases entry sets render
					t.Errorf("compiled artifact (%d workers) differs from legacy interpreter.\n--- compiled ---\n%s--- legacy ---\n%s",
						workers, got, ref)
				}
			}
		})
	}
	workload.SetLegacyExec(false)
}
