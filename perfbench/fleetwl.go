package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"kleb/internal/fleet"
	"kleb/internal/isa"
	"kleb/internal/kernel"
	klebtool "kleb/internal/kleb"
	"kleb/internal/machine"
	"kleb/internal/monitor"
	"kleb/internal/session"
	"kleb/internal/telemetry"
	"kleb/internal/workload"
)

// The fleet pass: 64 nodes for fleetRounds rounds on one shard worker,
// with a seeded fault plan on every 13th node-round and a 2-core cluster
// on every 16th node. One shard, because on a 2-CPU host shared with other
// tenants two shards spread about four times wider between runs (25% of
// the median against 7%); the fleet probe of the traced runs keeps two
// shards for the watermark metrics.
const (
	fleetNodes        = 64
	fleetRounds       = 10
	fleetShards       = 1
	fleetFaultEvery   = 13
	fleetClusterEvery = 16
)

// fleetEvents mirrors the fleet's per-node request (instructions, cycles,
// LLC misses) for the per-layer probes.
var fleetEvents = []isa.Event{isa.EvInstructions, isa.EvCycles, isa.EvLLCMisses}

type fleetBench struct {
	cfg fleet.Config
}

// setupFleet resolves the fleet configuration and boots the node profile
// once.
func setupFleet(seed uint64, tr *tracer) (benchWorkload, error) {
	b := &fleetBench{cfg: fleet.New(fleet.Config{
		Nodes: fleetNodes, Shards: fleetShards, Seed: seed, Rounds: fleetRounds,
		FaultEvery: fleetFaultEvery, ClusterEvery: fleetClusterEvery,
	}).Config()}
	end := tr.begin("workload.compile")
	for _, s := range fleetScripts(b.cfg) {
		s.Compile()
	}
	end()
	end = tr.begin("machine.boot")
	machine.Boot(b.cfg.Profile, seed)
	end()
	return b, nil
}

// fleetNodeSeed is node's first-round run seed, derived as the fleet
// derives it.
func fleetNodeSeed(cfg fleet.Config, node int) uint64 {
	return session.DeriveSeed(session.DeriveSeed(cfg.Seed, node), 0)
}

// fleetScripts are the first-round programs of the fleet's monitored
// (non-cluster) nodes. The fleet builds them internally; this mirrors its
// per-node synthetic program (footprint 64KiB..2MiB and random fraction
// picked by the node seed) so the per-layer probes see the same work.
func fleetScripts(cfg fleet.Config) []workload.Script {
	var out []workload.Script
	for node := 0; node < cfg.Nodes; node++ {
		if cfg.ClusterEvery > 0 && node%cfg.ClusterEvery == 0 {
			continue
		}
		seed := fleetNodeSeed(cfg, node)
		out = append(out, workload.Synthetic{
			Name:       "fleet-node",
			TotalInstr: cfg.TargetInstr,
			BlockInstr: 100_000,
			Footprint:  uint64(1) << (16 + seed%6),
			RandomFrac: 0.1 * float64(seed%5),
		}.Script())
	}
	return out
}

func (b *fleetBench) pass(tr *tracer) passResult {
	var r passResult
	f := fleet.New(b.cfg)
	end := tr.begin("pass.fleet_run")
	t0 := hostNow()
	err := f.Run()
	dt := seconds(t0, hostNow())
	end()
	r.op("fleet run", err)
	st := f.Status()
	r.op("fleet ledger", checkFleetStatus(st, b.cfg))

	end = tr.begin("pass.fleet_snapshot")
	var expo, trace bytes.Buffer
	snap, err := f.Snapshot()
	if err == nil {
		err = snap.WritePrometheus(&expo)
	}
	if err == nil {
		err = snap.WriteChromeTrace(&trace)
	}
	if err == nil {
		err = telemetry.LintExposition(bytes.NewReader(expo.Bytes()))
	}
	end()
	r.op("fleet snapshot", err)

	h := sha256.New()
	_, _ = h.Write(expo.Bytes()) // a hash.Hash never returns a write error
	_, _ = h.Write(trace.Bytes())
	r.digest = hex.EncodeToString(h.Sum(nil))
	r.rate = float64(st.NodeRounds) / dt
	r.figures = []figure{
		{"node_rounds_per_s", "1/s", r.rate},
		{"fleet_run_s", "s", dt},
		{"node_rounds", "count", float64(st.NodeRounds)},
		{"degraded_rounds", "count", float64(st.DegradedRounds)},
	}
	return r
}

// checkFleetStatus requires every node-round folded and the fleet's
// period-conservation ledger balanced.
func checkFleetStatus(st fleet.Status, cfg fleet.Config) error {
	if want := uint64(cfg.Nodes) * cfg.Rounds; st.NodeRounds != want {
		return fmt.Errorf("%d node-rounds folded, want %d", st.NodeRounds, want)
	}
	if !st.LedgerBalanced {
		return fmt.Errorf("ledger unbalanced: fires %d, captured %d, dropped %d, lost %d",
			st.LedgerFires, st.LedgerCaptured, st.LedgerDropped, st.LedgerLost)
	}
	return nil
}

func (b *fleetBench) inputs() layerInputs {
	scripts := fleetScripts(b.cfg)
	script := scripts[0] // node 1, the first monitored node
	return layerInputs{
		scripts: scripts,
		events:  fleetEvents,
		profile: b.cfg.Profile,
		period:  b.cfg.Period,
		// The monitored run is node 1's first round as the fleet runs it.
		spec: session.Spec{
			Profile:   b.cfg.Profile,
			Seed:      fleetNodeSeed(b.cfg, 1),
			NewTarget: func() kernel.Program { return script.Program() },
			NewTool:   func() (monitor.Tool, error) { return klebtool.New(), nil },
			Config:    monitor.Config{Events: fleetEvents, Period: b.cfg.Period},
			Limit:     b.cfg.Limit,
		},
	}
}
