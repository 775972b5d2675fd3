// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the index):
//
//	experiments table1   — Table I: LINPACK GFLOPS across tools
//	experiments table2   — Table II: triple-loop matmul overhead
//	experiments table3   — Table III: MKL dgemm overhead (LiMiT n/a)
//	experiments fig4     — LINPACK phase time series via K-LEB
//	experiments fig5     — Docker image MPKI on both machines
//	experiments fig6     — Meltdown vs non-Meltdown counts
//	experiments fig7     — Meltdown 100µs time series
//	experiments fig8     — normalized execution-time box plots
//	experiments fig9     — cross-tool count accuracy
//	experiments timers   — user-timer vs HRTimer granularity (§II-C/§III)
//	experiments sweep    — overhead vs sampling rate (§V/§VI)
//	experiments buffers  — ring-size ablation of the safety mechanism
//	experiments drains   — controller drain-cadence ablation
//	experiments colocate — shared-LLC co-location interference matrix
//	experiments suite    — characterization fingerprints of the synthetic suite
//	experiments placement — 4-container placement study (§IV-B's rule, measured)
//	experiments contention — online cross-core contention detection
//	experiments multiplex — perf stat scaled estimates vs exact K-LEB counts
//	                       as the event mix outgrows the counters (§II-B)
//	experiments taillat  — monitoring overhead as tail latency: the 3-tier
//	                       serve workload bare and under each tool, exact
//	                       p50/p99/p999 (exits non-zero if K-LEB's p99
//	                       effect is not strictly below perf stat's/PAPI's)
//	experiments events   — print each machine's architectural event table
//	experiments chaos    — fault-plan chaos sweep (-seeds plans; exits non-zero
//	                       if any run hangs or loses samples unaccounted)
//	experiments all      — everything above (chaos excluded: it is a CI gate,
//	                       not a paper artifact)
//
// Every experiment fans its independent simulated runs over a worker pool
// (-workers, default GOMAXPROCS); results are bit-identical for any pool
// size. With -md FILE, the paper-facing tables and figures are additionally
// rendered as a Markdown report (the regenerable EXPERIMENTS record); the
// pseudo-command "md-only" writes the report and exits. The -cpuprofile /
// -memprofile flags capture host pprof profiles of any command.
//
// The simulator's own speed is measured elsewhere: perfbench/ times the
// end-to-end and per-layer numbers, and scripts/bench_ab.sh gates the
// go test micro-benchmarks against the merge-base on the same host.
package main

import (
	"flag"
	"fmt"
	"os"

	"kleb/internal/experiments"
	"kleb/internal/pmu"
	"kleb/internal/prof"
	"kleb/internal/report"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// stopProfiles flushes any active -cpuprofile / -memprofile capture; fail
// calls it so profiles survive error exits too.
var stopProfiles = func() error { return nil }

// fail reports a fatal error and exits, flushing profiles first.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format, args...)
	_ = stopProfiles() // best-effort flush on the way out
	os.Exit(1)
}

func main() {
	var (
		trials  = flag.Int("trials", 0, "override trial count (0 = per-experiment default)")
		rounds  = flag.Int("rounds", 25, "meltdown averaging rounds")
		seed    = flag.Uint64("seed", 1, "base simulation seed")
		workers = flag.Int("workers", 0, "scheduler pool size for each experiment's runs (0 = GOMAXPROCS)")
		seeds   = flag.Int("seeds", 32, "with the chaos command: how many fault plans to sweep")
		mdPath  = flag.String("md", "", "also write a Markdown report of the paper-facing results to this file")
		trPath  = flag.String("trace", "", "write batch-level telemetry as Chrome trace-event JSON to this file")
		mtPath  = flag.String("metrics", "", "write batch-level telemetry as Prometheus text to this file")
		cpuProf = flag.String("cpuprofile", "", "write a host CPU profile (pprof) to this file")
		memProf = flag.String("memprofile", "", "write a host heap profile (pprof) to this file on exit")
		legacy  = flag.Bool("legacy-exec", false, "run workloads through the per-step legacy interpreter instead of compiled block streams (differential testing; artifacts are byte-identical)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] <table1|table2|table3|fig4|fig5|fig6|fig7|fig8|fig9|timers|sweep|buffers|drains|colocate|suite|placement|contention|multiplex|taillat|events|chaos|all|md-only>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	workload.SetLegacyExec(*legacy)
	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail("experiments: %v\n", err)
	}
	stopProfiles = stop
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: profile: %v\n", err)
		}
	}()
	cmd := flag.Arg(0)
	if setupBatchTelemetry(*trPath, *mtPath) {
		defer func() {
			if err := exportBatchTelemetry(*trPath, *mtPath); err != nil {
				fail("experiments: telemetry export: %v\n", err)
			}
		}()
	}
	if *mdPath != "" {
		if err := writeMarkdownReport(*mdPath, *trials, *rounds, *seed, *workers); err != nil {
			fail("experiments: markdown report: %v\n", err)
		}
		fmt.Printf("wrote Markdown report to %s\n", *mdPath)
		if cmd == "md-only" {
			return
		}
	}
	run := func(name string) {
		if err := dispatch(name, *trials, *rounds, *seed, *workers, *seeds); err != nil {
			fail("experiments %s: %v\n", name, err)
		}
	}
	if cmd == "all" {
		for _, name := range []string{"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "timers", "sweep", "buffers", "drains", "colocate", "suite", "placement", "contention", "multiplex", "taillat"} {
			run(name)
			fmt.Println()
		}
		return
	}
	run(cmd)
}

func dispatch(name string, trials, rounds int, seed uint64, workers, seeds int) error {
	w := os.Stdout
	switch name {
	case "table1", "fig4":
		res, err := experiments.RunLinpack(experiments.LinpackConfig{Trials: trials, Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "table2":
		res, err := experiments.RunOverhead(experiments.OverheadConfig{
			Workload: experiments.WorkloadTriple, Trials: trials, Seed: seed, Workers: workers,
		})
		if err != nil {
			return err
		}
		res.Render(w)
	case "table3":
		res, err := experiments.RunOverhead(experiments.OverheadConfig{
			Workload: experiments.WorkloadDgemm, Trials: trials, Seed: seed,
			StockKernelOnly: true, Workers: workers,
		})
		if err != nil {
			return err
		}
		res.Render(w)
	case "fig5":
		res, err := experiments.RunDocker(experiments.DockerConfig{Seed: seed, BothMachines: true, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "fig6", "fig7":
		res, err := experiments.RunMeltdown(experiments.MeltdownConfig{Rounds: rounds, Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "fig8":
		res, err := experiments.RunOverhead(experiments.OverheadConfig{
			Workload: experiments.WorkloadTriple, Trials: trials, Seed: seed, Workers: workers,
		})
		if err != nil {
			return err
		}
		res.RenderBoxes(w)
	case "fig9":
		res, err := experiments.RunAccuracy(experiments.AccuracyConfig{Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "timers":
		res, err := experiments.RunTimers(seed, workers)
		if err != nil {
			return err
		}
		res.Render(w)
	case "sweep":
		res, err := experiments.RunSweep(experiments.SweepConfig{Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "buffers":
		res, err := experiments.RunBufferAblation(experiments.BufferAblationConfig{Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "drains":
		res, err := experiments.RunDrainAblation(experiments.DrainAblationConfig{Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "colocate":
		res, err := experiments.RunColocate(experiments.ColocateConfig{Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "suite":
		res, err := experiments.RunCharacterize(experiments.CharacterizeConfig{Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
	case "placement":
		res, err := experiments.RunPlacement(seed, workers)
		if err != nil {
			return err
		}
		res.Render(w)
	case "contention":
		res, err := experiments.RunContention(seed)
		if err != nil {
			return err
		}
		res.Render(w)
	case "multiplex":
		res, err := experiments.RunMultiplex(experiments.MultiplexConfig{Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
		// Like chaos, the sweep doubles as a gate on the multiplexing model.
		return res.Check()
	case "taillat":
		res, err := experiments.RunTailLat(experiments.TailLatConfig{Trials: trials, Seed: seed, Workers: workers})
		if err != nil {
			return err
		}
		res.Render(w)
		// The study gates the overhead ordering: K-LEB's p99 inflation must
		// stay strictly below perf stat's and PAPI's.
		return res.Check()
	case "events":
		for i, arch := range pmu.Arches() {
			if i > 0 {
				fmt.Fprintln(w)
			}
			pmu.MustTable(arch).Render(w)
		}
	case "chaos":
		res, err := experiments.RunChaos(experiments.ChaosConfig{
			Seeds: seeds, BaseSeed: seed, Workers: workers,
		})
		if err != nil {
			return err
		}
		res.Render(w)
		// The sweep is a gate: a violated invariant fails the command.
		return res.Check()
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// writeMarkdownReport runs the paper-facing experiments and renders them as
// one Markdown document.
func writeMarkdownReport(path string, trials, rounds int, seed uint64, workers int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := report.New(f)

	lp, err := experiments.RunLinpack(experiments.LinpackConfig{Trials: trials, Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	r.TableI(lp)
	r.Fig4(lp)

	t2, err := experiments.RunOverhead(experiments.OverheadConfig{
		Workload: experiments.WorkloadTriple, Trials: trials, Seed: seed, Workers: workers,
	})
	if err != nil {
		return err
	}
	r.TableII(t2)
	r.Fig8(t2)

	t3, err := experiments.RunOverhead(experiments.OverheadConfig{
		Workload: experiments.WorkloadDgemm, Trials: trials, Seed: seed, StockKernelOnly: true, Workers: workers,
	})
	if err != nil {
		return err
	}
	r.TableIII(t3)

	dk, err := experiments.RunDocker(experiments.DockerConfig{Seed: seed, BothMachines: true, Workers: workers})
	if err != nil {
		return err
	}
	r.Fig5(dk)

	md, err := experiments.RunMeltdown(experiments.MeltdownConfig{Rounds: rounds, Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	r.Fig6and7(md)

	ac, err := experiments.RunAccuracy(experiments.AccuracyConfig{Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	r.Fig9(ac)

	tm, err := experiments.RunTimers(seed, workers)
	if err != nil {
		return err
	}
	r.Timers(tm)

	sw, err := experiments.RunSweep(experiments.SweepConfig{Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	r.Sweep(sw)

	mx, err := experiments.RunMultiplex(experiments.MultiplexConfig{Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	r.Multiplex(mx)

	tl, err := experiments.RunTailLat(experiments.TailLatConfig{Trials: trials, Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	r.TailLatency(tl)
	// Batch telemetry summary (present only when -trace/-metrics installed a
	// process-wide sink before this report ran).
	r.Telemetry(session.BatchTelemetry())
	return r.Err()
}
