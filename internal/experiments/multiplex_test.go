package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kleb/internal/isa"
)

var updateGolden = flag.Bool("update", false, "rewrite experiment golden files")

// renderMultiplex runs the default sweep at the given worker count and
// returns the rendered artifact.
func renderMultiplex(t *testing.T, workers int) []byte {
	t.Helper()
	res, err := RunMultiplex(MultiplexConfig{Workers: workers})
	if err != nil {
		t.Fatalf("RunMultiplex(workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	return buf.Bytes()
}

// TestMultiplexGolden pins the sweep's rendered artifact byte for byte and
// requires every run at 1, 2 and 8 workers to reproduce it — the
// worker-count determinism contract every experiment in this package makes.
func TestMultiplexGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full matmul sweep in -short mode")
	}
	serial := renderMultiplex(t, 1)

	path := filepath.Join("testdata", "multiplex.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with go test -run Multiplex -update): %v", err)
		}
		if !bytes.Equal(serial, want) {
			t.Errorf("multiplex artifact drifted from golden.\n--- got ---\n%s--- want ---\n%s", serial, want)
		}
	}

	for _, workers := range []int{2, 8} {
		if got := renderMultiplex(t, workers); !bytes.Equal(got, serial) {
			t.Errorf("%d-worker artifact differs from serial run.\n--- got ---\n%s--- want ---\n%s", workers, got, serial)
		}
	}
}

// TestMultiplexCheck asserts the sweep's own gate holds: under-budget mixes
// exact, oversubscribed mixes rotated and measurably scaled.
func TestMultiplexCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full matmul sweep in -short mode")
	}
	res, err := RunMultiplex(MultiplexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	var sawOver bool
	for _, row := range res.Rows {
		if row.N > 4 {
			sawOver = true
			if row.MaxAbsErrPct() == 0 {
				t.Errorf("mix of %d: no estimation error on an oversubscribed mix", row.N)
			}
		}
	}
	if !sawOver {
		t.Fatal("default sweep has no oversubscribed mix")
	}
}

// TestMultiplexCheckRejectsInexactUnderBudget feeds Check an under-budget
// row whose unscaled load count disagrees with the exact count: one round
// and scale 1.0 are not enough, block-counted events must match exactly.
// An LLC-miss difference alone is allowed (the tool perturbs the cache).
func TestMultiplexCheckRejectsInexactUnderBudget(t *testing.T) {
	row := func(loads uint64) *MultiplexResult {
		return &MultiplexResult{Rows: []MultiplexRow{{N: 2, Rounds: 1, Cells: []MultiplexCell{
			{Event: isa.EvLoads, Reported: loads, Scale: 1, Exact: 420_000_000},
			{Event: isa.EvLLCMisses, Reported: 60_726_426, Scale: 1, Exact: 61_651_999},
		}}}}
	}
	if err := row(420_000_000).Check(); err != nil {
		t.Fatalf("exact loads with perturbed LLC misses rejected: %v", err)
	}
	err := row(419_999_999).Check()
	if err == nil || !strings.Contains(err.Error(), "MEM_INST_RETIRED.LOADS reported 419999999") {
		t.Fatalf("inexact under-budget loads passed Check (err %v)", err)
	}
}
