// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's packages for a fixed host-time budget,
// checks every output the workload produces, and prints its metrics as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host time of the
// workload's passes, set-up time, memory). With --trace 1 a separate run
// records spans around every call into a layer and drives each layer's
// public functions with the workload's own inputs, giving the per-layer
// metrics, each layer's self time as a share of the run, and the tracing
// overhead. README.md lists the workloads and what each metric should
// move. Times are host time; figures the simulator computes are checked
// as correctness data, never reported as performance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

// minPasses is the fewest passes a run measures, whatever --seconds says.
const minPasses = 3

// figure is one named measurement with its unit.
type figure struct {
	name  string
	unit  string
	value float64
}

// passResult is the outcome of one pass of a workload's fixed work.
type passResult struct {
	attempted, failed int
	problems          []string
	// rate is the workload's unit of work per host second (work_per_s).
	rate float64
	// digest is a SHA-256 over the pass's deterministic artifacts; every
	// pass of one seed must reproduce it byte for byte.
	digest string
	// figures are the workload's own timings, printed ahead of the result.
	figures []figure
}

// op records one operation: it fails if err is non-nil.
func (r *passResult) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// benchWorkload is one workload after set-up.
type benchWorkload interface {
	// pass runs the workload's fixed work once, recording spans on tr
	// (nil for untraced passes).
	pass(tr *tracer) passResult
	// inputs are the scripts, events, machine profile and monitored run
	// the per-layer probes take from this workload.
	inputs() layerInputs
}

// setupFunc prepares a workload from its seed, recording spans on tr.
type setupFunc func(seed uint64, tr *tracer) (benchWorkload, error)

// workloads maps each workload's name to its set-up.
var workloads = map[string]setupFunc{
	"paper":      setupPaper,
	"hf-collect": setupHFCollect,
	"fleet":      setupFleet,
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed on the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name   = flag.String("workload", "", "workload to run: paper, hf-collect or fleet")
		seed   = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		secs   = flag.Int("seconds", 40, "host seconds to measure for")
		traced = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		outDir = flag.String("out", "", "directory for the traced run's span file (empty: not written)")
		commit = flag.String("commit", "none", "commit of the code under test, for the host fingerprint")
	)
	flag.Parse()
	if err := run(*name, *seed, *secs, *traced, *outDir, *commit); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, secs, traced int, outDir, commit string) error {
	setup, ok := workloads[name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if secs < 1 || traced < 0 || traced > 1 {
		return fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	fp, err := hostFingerprint(".", commit)
	if err != nil {
		return fmt.Errorf("host fingerprint: %w", err)
	}
	hostJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", name, seed, secs, traced)

	var res result
	if traced == 1 {
		res, err = runTraced(name, setup, seed, float64(secs), outDir)
	} else {
		res, err = runEndToEnd(setup, seed, float64(secs))
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupAll runs the workload's set-up setupReps times and returns the
// last instance with the set-up times.
func setupAll(setup setupFunc, seed uint64, tr *tracer) (benchWorkload, []float64, error) {
	var b benchWorkload
	var times []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := hostNow()
		end := tr.begin("bench.setup")
		var err error
		b, err = setup(seed, tr)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, seconds(t0, hostNow()))
	}
	return b, times, nil
}

// timedPass runs one pass after a collection and measures its host time
// and the heap bytes it allocated.
func timedPass(b benchWorkload, tr *tracer) (passResult, float64, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := tr.begin("bench.pass")
	t0 := hostNow()
	r := b.pass(tr)
	dt := seconds(t0, hostNow())
	end()
	runtime.ReadMemStats(&after)
	return r, dt, after.TotalAlloc - before.TotalAlloc
}

// tally accumulates pass outcomes and checks digests agree across passes.
type tally struct {
	attempted, failed int
	digest            string
	figures           map[string][]float64
	units             map[string]string
	order             []string
}

func (t *tally) add(r passResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", p)
	}
	t.attempted++ // the determinism check below is an operation too
	if t.digest == "" {
		t.digest = r.digest
	} else if r.digest != t.digest {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed: artifact digest %s differs from the first pass's %s\n", r.digest, t.digest)
	}
	if t.figures == nil {
		t.figures, t.units = map[string][]float64{}, map[string]string{}
	}
	for _, f := range r.figures {
		if _, ok := t.units[f.name]; !ok {
			t.order = append(t.order, f.name)
			t.units[f.name] = f.unit
		}
		t.figures[f.name] = append(t.figures[f.name], f.value)
	}
}

// printFigures prints the workload's own figures (medians over passes)
// and the artifact digest ahead of the result line.
func (t *tally) printFigures() {
	for _, n := range t.order {
		fmt.Printf("figure %s %.6g %s\n", n, median(t.figures[n]), t.units[n])
	}
	fmt.Printf("figure error_rate %.6g ratio\n", float64(t.failed)/float64(t.attempted))
	fmt.Printf("digest %s\n", t.digest)
}

func runEndToEnd(setup setupFunc, seed uint64, budget float64) (result, error) {
	b, setups, err := setupAll(setup, seed, nil)
	if err != nil {
		return result{}, err
	}
	var t tally
	var walls, rates, allocs []float64
	start := hostNow()
	for len(walls) < minPasses || seconds(start, hostNow())+median(walls) <= budget {
		r, dt, alloc := timedPass(b, nil)
		t.add(r)
		fmt.Printf("pass %d wall_s %.6f\n", len(walls)+1, dt)
		walls = append(walls, dt)
		rates = append(rates, r.rate)
		allocs = append(allocs, float64(alloc)/(1<<20))
	}
	// The runtime's memory high-water mark depends on when collections
	// happen to run, which varies by tens of percent between identical
	// runs on a shared host, so it is printed rather than gated.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("passes %d\n", len(walls))
	fmt.Printf("figure peak_sys_mb %.6g MB\n", float64(ms.Sys)/(1<<20))
	t.printFigures()
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":    {median(setups), "s"},
			"wall_s":     {median(walls), "s"},
			"work_per_s": {median(rates), "1/s"},
			"alloc_mb":   {median(allocs), "MB"},
		},
	}, nil
}

func runTraced(name string, setup setupFunc, seed uint64, budget float64, outDir string) (result, error) {
	tr := &tracer{}
	b, _, err := setupAll(setup, seed, tr)
	if err != nil {
		return result{}, err
	}
	// Untraced and traced passes alternate so host drift hits both alike;
	// they take about half the budget, the layer probes the rest.
	var t tally
	var plain, traced []float64
	start := hostNow()
	for len(plain) < 2 || seconds(start, hostNow())+2*median(plain) <= budget/2 {
		r, dt, _ := timedPass(b, nil)
		t.add(r)
		plain = append(plain, dt)
		r, dt, _ = timedPass(b, tr)
		t.add(r)
		traced = append(traced, dt)
	}
	d := &probes{in: b.inputs(), seed: seed, tr: tr, m: map[string]metric{}}
	d.runAll()
	t.attempted += d.attempted
	t.failed += d.failed

	shares := tr.selfShares()
	for _, layer := range tracedLayers {
		d.set("self_pct."+layer, shares[layer], "%")
	}
	d.set("trace.overhead_pct", 100*(median(traced)/median(plain)-1), "%")
	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans %s (%d)\n", path, len(tr.spans))
	}
	t.printFigures()
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: d.m}, nil
}

// tracedLayers are the span layers whose self time the traced run
// reports: "pass" is the workload's own calls into the system, "bench"
// the benchmark's bookkeeping around them, the rest the layer probes.
var tracedLayers = []string{"pass", "bench", "cache", "cpu", "pmu", "session", "telemetry", "machine", "fleet", "workload"}

// median returns the middle value (mean of the middle two), or 0 for no
// values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
