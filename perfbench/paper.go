package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"kleb/internal/experiments"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	klebtool "kleb/internal/kleb"
	"kleb/internal/ktime"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/workload"
)

// paperRounds is the Fig 6 averaging depth, the experiments CLI default.
const paperRounds = 25

// paperBench regenerates four of the paper's results in-process on one
// worker: Table II (run-time overhead of all five tools), Fig 5 (Docker
// MPKI classes on both machines), Fig 6 (Meltdown at 100µs) and the
// tail-latency study. Its unit of work is one simulated session run.
type paperBench struct {
	seed    uint64
	scripts []workload.Script
}

// paperScripts are the scripts the paper pass runs: the triple-loop
// matmul (Table II), every Docker image (Fig 5) and the Meltdown victim
// and attack (Fig 6).
func paperScripts() []workload.Script {
	md := workload.NewMeltdown()
	s := []workload.Script{workload.NewTripleLoopMatmul().Script(), md.VictimScript(), md.AttackScript()}
	for _, img := range workload.Images() {
		s = append(s, img.Script())
	}
	return s
}

// setupPaper materializes and compiles the pass's scripts and boots each
// machine profile it uses once.
func setupPaper(seed uint64, tr *tracer) (benchWorkload, error) {
	p := &paperBench{seed: seed}
	end := tr.begin("workload.compile")
	p.scripts = paperScripts()
	for _, s := range p.scripts {
		s.Compile()
	}
	end()
	end = tr.begin("machine.boot")
	for _, prof := range []machine.Profile{machine.Nehalem(), machine.CascadeLake(), machine.LiMiTKernel()} {
		machine.Boot(prof, seed)
	}
	end()
	return p, nil
}

func (p *paperBench) pass(tr *tracer) passResult {
	var r passResult
	h := sha256.New()
	runs := 0
	step := func(name string, fn func() (int, error)) {
		end := tr.begin("pass." + name)
		t0 := hostNow()
		n, err := fn()
		dt := seconds(t0, hostNow())
		end()
		r.op(name, err)
		runs += n
		r.figures = append(r.figures, figure{name + "_s", "s", dt})
	}
	step("table2", func() (int, error) {
		res, err := experiments.RunOverhead(experiments.OverheadConfig{
			Workload: experiments.WorkloadTriple, Seed: p.seed, Workers: 1,
		})
		if err != nil {
			return 0, err
		}
		res.Render(h)
		res.RenderBoxes(h)
		return overheadRuns(res), checkTable2(res)
	})
	step("fig5", func() (int, error) {
		res, err := experiments.RunDocker(experiments.DockerConfig{Seed: p.seed, BothMachines: true, Workers: 1})
		if err != nil {
			return 0, err
		}
		res.Render(h)
		return len(res.Rows), checkFig5(res)
	})
	step("fig6", func() (int, error) {
		res, err := experiments.RunMeltdown(experiments.MeltdownConfig{Rounds: paperRounds, Seed: p.seed, Workers: 1})
		if err != nil {
			return 0, err
		}
		res.Render(h)
		return 2 * paperRounds, checkFig6(res)
	})
	step("taillat", func() (int, error) {
		res, err := experiments.RunTailLat(experiments.TailLatConfig{Seed: p.seed, Workers: 1})
		if err != nil {
			return 0, err
		}
		res.Render(h)
		n := 0
		for _, sc := range res.Scenarios {
			for _, row := range sc.Rows {
				if row.Unsupported == "" {
					n += res.Trials
				}
			}
		}
		return n, res.Check()
	})
	var wall float64
	for _, f := range r.figures {
		wall += f.value
	}
	r.rate = float64(runs) / wall
	r.digest = hex.EncodeToString(h.Sum(nil))
	r.figures = append(r.figures, figure{"session_runs", "count", float64(runs)})
	return r
}

// overheadRuns counts Table II's session runs: the baselines plus every
// supported tool's trials.
func overheadRuns(res *experiments.OverheadResult) int {
	n := len(res.BaselineRuns)
	for _, row := range res.Rows {
		n += len(row.OverheadPct)
	}
	return n
}

// checkTable2 holds the paper's headline: K-LEB has the lowest mean
// overhead of the five tools, and every tool ran.
func checkTable2(res *experiments.OverheadResult) error {
	kl, ok := res.Row(experiments.KLEB)
	if !ok || kl.Unsupported != "" {
		return fmt.Errorf("table2: K-LEB row missing")
	}
	for _, row := range res.Rows {
		if row.Unsupported != "" {
			return fmt.Errorf("table2: %s unsupported: %s", row.Tool, row.Unsupported)
		}
		if row.Tool != experiments.KLEB && row.Mean <= kl.Mean {
			return fmt.Errorf("table2: %s overhead %.3f%% not above K-LEB's %.3f%%", row.Tool, row.Mean, kl.Mean)
		}
	}
	return nil
}

// checkFig5 requires every image on both machines to land in the paper's
// MPKI class.
func checkFig5(res *experiments.DockerResult) error {
	if len(res.Rows) != 2*len(workload.Images()) {
		return fmt.Errorf("fig5: %d rows, want %d", len(res.Rows), 2*len(workload.Images()))
	}
	for _, row := range res.Rows {
		if row.Class != row.Expected {
			return fmt.Errorf("fig5: %s on %s classified %s (MPKI %.2f), paper says %s",
				row.Image, row.Machine, row.Class, row.MPKI, row.Expected)
		}
	}
	return nil
}

// checkFig6 requires the attack to raise LLC misses and MPKI and K-LEB to
// deliver a 100µs series for both sides.
func checkFig6(res *experiments.MeltdownResult) error {
	v, a := res.Victim, res.Attack
	if a.LLCMisses <= v.LLCMisses || a.MPKI <= v.MPKI {
		return fmt.Errorf("fig6: attack misses %.0f / MPKI %.2f not above victim's %.0f / %.2f",
			a.LLCMisses, a.MPKI, v.LLCMisses, v.MPKI)
	}
	if v.MeanSamples < 1 || a.MeanSamples <= v.MeanSamples {
		return fmt.Errorf("fig6: sample series victim %.1f, attack %.1f", v.MeanSamples, a.MeanSamples)
	}
	return nil
}

// fig6Events is the Fig 6 monitoring request.
var fig6Events = []isa.Event{isa.EvLLCRefs, isa.EvLLCMisses, isa.EvInstructions}

func (p *paperBench) inputs() layerInputs {
	attack := workload.NewMeltdown().AttackScript()
	period := 100 * ktime.Microsecond
	return layerInputs{
		scripts: p.scripts,
		events:  fig6Events,
		profile: machine.Nehalem(),
		period:  period,
		// The monitored run is Fig 6's first attack round.
		spec: session.Spec{
			Profile:    machine.Nehalem(),
			Seed:       p.seed,
			TargetName: "victim+meltdown",
			NewTarget:  func() kernel.Program { return attack.Program() },
			NewTool:    func() (monitor.Tool, error) { return klebtool.New(), nil },
			Config:     monitor.Config{Events: fig6Events, Period: period, ExcludeKernel: true},
		},
	}
}
