package workload

import (
	"math"

	"kleb/internal/isa"
	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/telemetry"
)

// This file is the request-serving cloud workload (ROADMAP item 2): a
// multi-tier service with processor-sharing replicas, open- and closed-loop
// traffic generation, and request cloning with cancel-on-first-complete.
//
// The model couples queueing to the simulated machine through capacity, not
// through per-request instruction blocks: the served instruction stream is
// an ordinary compiled phase script (so it rides the batched block executor
// and looks like a busy server to the cache and PMU models), and every
// CheckpointInstr retired service instructions the program checkpoints the
// virtual clock. Each checkpoint window's service capacity is the rate
// instructions-retired / virtual-time-elapsed — so anything that steals
// time or slows the target (timer IRQs, strategic-point syscalls, a tool's
// competing process, cache pollution from log formatting) lowers the
// window's capacity while open-loop arrivals keep coming at the same
// virtual-time rate. Utilization rises, queues lengthen, and the tail of
// the latency distribution inflates — the mechanism by which monitoring
// overhead becomes tail latency, which is what the taillat experiment
// measures. Latencies land in a telemetry.ExactQuantiles because log2
// histogram buckets cannot resolve p99 shifts smaller than 2x.

// Tier is one stage of the served request path.
type Tier struct {
	// Name labels the tier in reports.
	Name string
	// Share is the tier's fraction of the server's instruction capacity.
	// Shares across tiers should sum to ~1.
	Share float64
	// Replicas is how many processor-sharing replicas the tier's capacity
	// is split into. Requests are placed on replicas per-request-randomly,
	// so replica imbalance contributes tail latency.
	Replicas int
	// Clones is how many replicas each request is dispatched to at this
	// tier (cancel-on-first-complete hedging). 0 or 1 means no cloning;
	// values above Replicas are capped.
	Clones int
	// DemandInstr is the mean per-clone service demand in instructions.
	// Actual demands are exponential, sampled per request.
	DemandInstr uint64
}

// clones returns the effective clone count.
func (t Tier) clones() int {
	d := t.Clones
	if d < 1 {
		d = 1
	}
	if d > t.Replicas {
		d = t.Replicas
	}
	return d
}

// Serve is the request-serving workload model.
type Serve struct {
	// Name identifies the workload.
	Name string
	// Tiers run in order for every request.
	Tiers []Tier

	// ArrivalsPerSec is the open-loop Poisson arrival rate (virtual time).
	// Ignored when Users is nonzero.
	ArrivalsPerSec float64
	// Users switches to a closed loop: this many simulated users cycle
	// between an exponential think period of mean Think and one request.
	// Users is an aggregate count, not per-user state, so populations in
	// the millions cost nothing.
	Users uint64
	// Think is the closed loop's mean think time.
	Think ktime.Duration

	// MaxInFlight bounds admitted requests; arrivals beyond it are
	// rejected and counted (0 = unlimited).
	MaxInFlight int

	// TotalInstr is the server's instruction budget — the run length.
	TotalInstr uint64
	// BlockInstr is the emission granularity (0 = the package default).
	BlockInstr uint64
	// CheckpointInstr is the capacity-checkpoint cadence in service
	// instructions (0 = 1_000_000). It bounds how stale a window's
	// capacity estimate can be; completions within a window are
	// interpolated at the window's rate, so latency resolution is much
	// finer than the checkpoint itself.
	CheckpointInstr uint64
	// Footprint is the served working set in bytes.
	Footprint uint64
}

// NewServe returns the default three-tier service: a thin web tier, a
// hedged (2-clone) application tier, and a database tier that is the
// designed bottleneck. Defaults are calibrated for the Nehalem profile so
// the bare bottleneck runs hot enough that monitoring overhead visibly
// inflates the tail without saturating.
func NewServe() Serve {
	return Serve{
		Name: "serve",
		Tiers: []Tier{
			{Name: "web", Share: 0.25, Replicas: 2, Clones: 1, DemandInstr: 30_000},
			{Name: "app", Share: 0.35, Replicas: 3, Clones: 2, DemandInstr: 65_000},
			{Name: "db", Share: 0.40, Replicas: 2, Clones: 1, DemandInstr: 105_000},
		},
		ArrivalsPerSec:  380,
		MaxInFlight:     4096,
		TotalInstr:      1_200_000_000,
		CheckpointInstr: 1_000_000,
		Footprint:       4 << 20,
	}
}

// ClosedLoop converts s to a closed loop of users cycling through think
// times of mean think.
func (s Serve) ClosedLoop(users uint64, think ktime.Duration) Serve {
	s.Users = users
	s.Think = think
	return s
}

// Script returns the server's instruction stream: one steady phase whose
// signature is a cache-resident mix with enough random accesses that a
// competing tool process measurably pollutes it.
func (s Serve) Script() Script {
	return Script{
		Name: s.Name,
		Phases: []Phase{{
			Name:           "serve",
			TotalInstr:     s.TotalInstr,
			BlockInstr:     s.BlockInstr,
			LoadsPerK:      280,
			StoresPerK:     110,
			BranchesPerK:   170,
			MispredictRate: 0.015,
			Mem:            isa.MemPattern{Base: regionServe, Footprint: s.Footprint, Stride: 64, RandomFrac: 0.15},
			Priv:           isa.User,
		}},
	}
}

// Program returns a fresh serving program. seed drives every stochastic
// element (arrivals, demands, replica placement); per-request draws are
// reseeded from (seed, request index), so two runs with equal seeds see an
// identical offered load even when their capacities diverge — the pairing
// that makes cross-tool tail comparisons meaningful.
func (s Serve) Program(seed uint64) *ServeProgram {
	every := s.CheckpointInstr
	if every == 0 {
		every = 1_000_000
	}
	return &ServeProgram{
		inner: s.Script().Program(),
		sim:   newServeSim(s, seed),
		every: every,
	}
}

// ServeProgram drives a Serve as a kernel process: it executes the script's
// compiled stream (delegating the block walk, batching and the PAPI/LiMiT
// instrumentation seam to the inner ScriptProgram) and checkpoints the
// queueing simulation on the way through.
type ServeProgram struct {
	inner *ScriptProgram
	sim   *serveSim

	every   uint64 // checkpoint cadence, service instructions
	sinceCk uint64 // service instructions since the last checkpoint
	done    bool
}

var _ kernel.Program = (*ServeProgram)(nil)
var _ kernel.BlockStream = (*ServeProgram)(nil)
var _ Instrumentable = (*ServeProgram)(nil)

// Script implements Instrumentable.
func (sp *ServeProgram) Script() Script { return sp.inner.Script() }

// Instrument implements Instrumentable by instrumenting the inner walk.
func (sp *ServeProgram) Instrument(prelude []kernel.Op, every uint64, hook func(k *kernel.Kernel, p *kernel.Process) []kernel.Op) {
	sp.inner.Instrument(prelude, every, hook)
}

// Stats exposes the run's serving statistics; read it after the run.
func (sp *ServeProgram) Stats() *ServeStats { return &sp.sim.stats }

// Next implements kernel.Program. The checkpoint happens at the top of the
// call, when k.Now() reflects everything previously emitted — including
// tool-injected syscalls and the blocks that tripped the threshold.
func (sp *ServeProgram) Next(k *kernel.Kernel, p *kernel.Process) kernel.Op {
	if !sp.sim.started {
		sp.sim.start(k.Now())
	}
	if sp.sinceCk >= sp.every {
		sp.sim.advance(k.Now(), sp.sinceCk)
		sp.sinceCk = 0
	}
	op := sp.inner.Next(k, p)
	switch o := op.(type) {
	case kernel.OpExec:
		if o.Block.Mem.Base == regionServe {
			sp.sinceCk += o.Block.Instr
		}
	case kernel.OpExit:
		if !sp.done {
			sp.done = true
			sp.sim.finish(k.Now(), sp.sinceCk)
			sp.sinceCk = 0
		}
	}
	return op
}

// PeekRun implements kernel.BlockStream: the inner stream's batchable run,
// additionally capped so no batch crosses a capacity checkpoint — the
// crossing block and the checkpoint after it must flow through Next.
func (sp *ServeProgram) PeekRun() (isa.Block, uint64) {
	blk, avail := sp.inner.PeekRun()
	if avail == 0 || blk.Mem.Base != regionServe {
		return blk, avail
	}
	if sp.sinceCk >= sp.every {
		return blk, 0
	}
	// Copies emittable before one crosses the checkpoint threshold:
	// largest c with sinceCk + c·Instr < every.
	if ckCap := (sp.every - sp.sinceCk - 1) / blk.Instr; ckCap < avail {
		avail = ckCap
	}
	return blk, avail
}

// ConsumeRun implements kernel.BlockStream.
func (sp *ServeProgram) ConsumeRun(n uint64) {
	if n == 0 {
		return
	}
	blk, _ := sp.inner.PeekRun()
	sp.inner.ConsumeRun(n)
	if blk.Mem.Base == regionServe {
		sp.sinceCk += n * blk.Instr
	}
}

// ServeStats is one run's serving outcome. Latencies are virtual
// nanoseconds from arrival to last-tier completion, over completed requests
// only; requests still in flight when the budget ran out are reported in
// InFlightAtEnd (Arrivals = Completed + Rejected + InFlightAtEnd always).
type ServeStats struct {
	Arrivals        uint64
	Completed       uint64
	Rejected        uint64
	InFlightAtEnd   uint64
	PeakInFlight    uint64
	ClonesCancelled uint64
	Start, End      ktime.Time
	Latency         telemetry.ExactQuantiles
}

// Throughput returns completed requests per virtual second.
func (st *ServeStats) Throughput() float64 {
	span := st.End.Sub(st.Start)
	if span == 0 {
		return 0
	}
	return float64(st.Completed) / span.Seconds()
}

// psJob is one clone of one request in service at one replica.
type psJob struct {
	req       *request
	remaining float64 // instructions
}

// psReplica is one processor-sharing server: all resident jobs progress at
// replicaRate / len(jobs).
type psReplica struct {
	jobs []psJob
}

// simTier is one tier's runtime state.
type simTier struct {
	spec     Tier
	replicas []psReplica
}

// request is one in-flight request. All of its randomness — per-tier,
// per-clone demands and replica placements — is drawn at admission from a
// stream reseeded with the request's index, so it is identical across runs
// of equal seed regardless of what the capacity does.
type request struct {
	id         uint64
	arrival    ktime.Time
	tier       int
	demands    [][]float64
	placements [][]int
}

// serveSim is the queueing simulation, advanced in capacity windows.
type serveSim struct {
	model Serve
	seed  uint64

	arrRng *ktime.Rand // interarrival stream
	reqRng *ktime.Rand // per-request scratch, reseeded per request

	started bool
	lastCk  ktime.Time
	carry   uint64 // instructions credited to a zero-width window

	nextArr  ktime.Time
	haveArr  bool
	thinking uint64 // closed loop: users currently thinking

	tiers    []simTier
	inflight int
	nextID   uint64

	stats ServeStats
}

func newServeSim(model Serve, seed uint64) *serveSim {
	s := &serveSim{
		model:  model,
		seed:   seed,
		arrRng: ktime.NewRand(seed),
		reqRng: ktime.NewRand(seed + 1),
	}
	s.tiers = make([]simTier, len(model.Tiers))
	for i, t := range model.Tiers {
		s.tiers[i] = simTier{spec: t, replicas: make([]psReplica, t.Replicas)}
	}
	return s
}

func (s *serveSim) closed() bool { return s.model.Users > 0 }

// start opens the measurement span and schedules the first arrival.
func (s *serveSim) start(now ktime.Time) {
	s.started = true
	s.lastCk = now
	s.stats.Start = now
	s.thinking = s.model.Users
	s.scheduleArrival(now)
}

// advance folds one capacity window [lastCk, now) with instr service
// instructions retired into the queueing state.
func (s *serveSim) advance(now ktime.Time, instr uint64) {
	if now <= s.lastCk {
		s.carry += instr
		return
	}
	s.window(now, instr+s.carry)
	s.carry = 0
	s.lastCk = now
}

// finish flushes the final partial window and closes the measurement span.
func (s *serveSim) finish(now ktime.Time, instr uint64) {
	if !s.started {
		return
	}
	s.advance(now, instr)
	s.stats.End = now
	s.stats.InFlightAtEnd = uint64(s.inflight)
	s.haveArr = false
}

// window runs the event loop over [lastCk, until) at the window's capacity
// rate (instructions per virtual nanosecond). Completions are earliest-first
// with deterministic tie-breaks (tier, then replica, then job order);
// completions at an instant precede arrivals at the same instant.
func (s *serveSim) window(until ktime.Time, instr uint64) {
	rate := float64(instr) / float64(until.Sub(s.lastCk))
	cur := s.lastCk
	for {
		tc, ti, ri, ji, haveC := s.earliestCompletion(cur, rate)
		haveA := s.haveArr && s.nextArr <= until
		switch {
		case haveC && tc <= until && (!haveA || tc <= s.nextArr):
			s.age(tc.Sub(cur), rate)
			cur = tc
			s.complete(ti, ri, ji, cur)
		case haveA:
			s.age(s.nextArr.Sub(cur), rate)
			cur = s.nextArr
			s.arrive(cur)
		default:
			s.age(until.Sub(cur), rate)
			return
		}
	}
}

// replicaRate is one replica's service rate under the window rate.
func (s *serveSim) replicaRate(ti int, rate float64) float64 {
	t := s.tiers[ti].spec
	return t.Share * rate / float64(t.Replicas)
}

// earliestCompletion scans for the next job to finish at the window rate.
func (s *serveSim) earliestCompletion(cur ktime.Time, rate float64) (t ktime.Time, ti, ri, ji int, ok bool) {
	for i := range s.tiers {
		rrep := s.replicaRate(i, rate)
		if rrep <= 0 {
			continue
		}
		for r := range s.tiers[i].replicas {
			jobs := s.tiers[i].replicas[r].jobs
			if len(jobs) == 0 {
				continue
			}
			minJ := 0
			for j := 1; j < len(jobs); j++ {
				if jobs[j].remaining < jobs[minJ].remaining {
					minJ = j
				}
			}
			// Time for the min job to drain at rate rrep/len(jobs), rounded
			// up so aging by it always retires the job.
			d := ktime.Duration(math.Ceil(jobs[minJ].remaining * float64(len(jobs)) / rrep))
			ft := cur.Add(d)
			if !ok || ft.Before(t) {
				t, ti, ri, ji, ok = ft, i, r, minJ, true
			}
		}
	}
	return t, ti, ri, ji, ok
}

// age progresses every resident job by d of processor sharing.
func (s *serveSim) age(d ktime.Duration, rate float64) {
	if d == 0 {
		return
	}
	for i := range s.tiers {
		rrep := s.replicaRate(i, rate)
		if rrep <= 0 {
			continue
		}
		for r := range s.tiers[i].replicas {
			jobs := s.tiers[i].replicas[r].jobs
			if len(jobs) == 0 {
				continue
			}
			per := rrep / float64(len(jobs)) * float64(d)
			for j := range jobs {
				jobs[j].remaining -= per
				if jobs[j].remaining < 0 {
					jobs[j].remaining = 0
				}
			}
		}
	}
}

// complete retires the job at (ti, ri, ji): cancels its sibling clones,
// moves the request to the next tier or records its latency.
func (s *serveSim) complete(ti, ri, ji int, now ktime.Time) {
	rep := &s.tiers[ti].replicas[ri]
	req := rep.jobs[ji].req
	rep.jobs = append(rep.jobs[:ji], rep.jobs[ji+1:]...)
	// Cancel-on-first-complete: the winning clone kills its siblings.
	for r := range s.tiers[ti].replicas {
		sib := &s.tiers[ti].replicas[r]
		kept := sib.jobs[:0]
		for _, j := range sib.jobs {
			if j.req == req {
				s.stats.ClonesCancelled++
				continue
			}
			kept = append(kept, j)
		}
		sib.jobs = kept
	}
	req.tier++
	if req.tier < len(s.tiers) {
		s.dispatch(req)
		return
	}
	s.stats.Latency.Observe(uint64(now.Sub(req.arrival)))
	s.stats.Completed++
	s.inflight--
	if s.closed() {
		s.thinking++
		if !s.haveArr {
			s.scheduleArrival(now)
		}
	}
}

// arrive processes one arrival instant.
func (s *serveSim) arrive(now ktime.Time) {
	s.stats.Arrivals++
	if s.closed() {
		s.thinking--
	}
	if s.model.MaxInFlight > 0 && s.inflight >= s.model.MaxInFlight {
		s.stats.Rejected++
		if s.closed() {
			s.thinking++ // bounced straight back to thinking
		}
	} else {
		s.admit(now)
	}
	s.scheduleArrival(now)
}

// admit creates the request, draws all of its randomness, and dispatches
// it to the first tier.
func (s *serveSim) admit(now ktime.Time) {
	req := &request{id: s.nextID, arrival: now}
	s.nextID++
	s.reqRng.Reseed(s.seed + (req.id+1)*0x6c62272e07bb0142)
	req.demands = make([][]float64, len(s.tiers))
	req.placements = make([][]int, len(s.tiers))
	for i := range s.tiers {
		t := s.tiers[i].spec
		d := t.clones()
		dem := make([]float64, d)
		for c := range dem {
			dem[c] = expSample(s.reqRng) * float64(t.DemandInstr)
		}
		req.demands[i] = dem
		// d distinct replicas via partial Fisher–Yates.
		perm := make([]int, t.Replicas)
		for p := range perm {
			perm[p] = p
		}
		for p := 0; p < d; p++ {
			q := p + s.reqRng.Intn(t.Replicas-p)
			perm[p], perm[q] = perm[q], perm[p]
		}
		req.placements[i] = perm[:d]
	}
	s.inflight++
	if uint64(s.inflight) > s.stats.PeakInFlight {
		s.stats.PeakInFlight = uint64(s.inflight)
	}
	s.dispatch(req)
}

// dispatch places the request's clones at its current tier.
func (s *serveSim) dispatch(req *request) {
	ti := req.tier
	for c, r := range req.placements[ti] {
		rep := &s.tiers[ti].replicas[r]
		rep.jobs = append(rep.jobs, psJob{req: req, remaining: req.demands[ti][c]})
	}
}

// scheduleArrival draws the next arrival after from. In the closed loop the
// aggregate think population behaves as a Poisson source of rate
// thinking/Think; with nobody thinking, arrivals pause until a completion.
func (s *serveSim) scheduleArrival(from ktime.Time) {
	var mean float64 // ns
	if s.closed() {
		if s.thinking == 0 {
			s.haveArr = false
			return
		}
		mean = float64(s.model.Think) / float64(s.thinking)
	} else {
		if s.model.ArrivalsPerSec <= 0 {
			s.haveArr = false
			return
		}
		mean = float64(ktime.Second) / s.model.ArrivalsPerSec
	}
	d := ktime.Duration(mean * expSample(s.arrRng))
	if d == 0 {
		d = 1 // strictly-later arrivals guarantee event-loop progress
	}
	s.nextArr = from.Add(d)
	s.haveArr = true
}

// expSample draws a unit-mean exponential variate, clamped to [0.05, 8] so
// a single unlucky draw cannot distort a run (the same policy as
// Rand.Jitter).
func expSample(r *ktime.Rand) float64 {
	x := -math.Log1p(-r.Float64())
	if x < 0.05 {
		x = 0.05
	}
	if x > 8 {
		x = 8
	}
	return x
}
