package workload

import (
	"testing"

	"kleb/internal/ktime"
)

// testModel is a small, fast-arriving service for direct simulator drives.
func testModel() Serve {
	return Serve{
		Name: "serve-test",
		Tiers: []Tier{
			{Name: "web", Share: 0.3, Replicas: 2, Clones: 1, DemandInstr: 20_000},
			{Name: "app", Share: 0.3, Replicas: 3, Clones: 2, DemandInstr: 30_000},
			{Name: "db", Share: 0.4, Replicas: 2, Clones: 1, DemandInstr: 50_000},
		},
		ArrivalsPerSec: 5000,
		MaxInFlight:    1024,
	}
}

// drive advances the simulation through n capacity windows of the given
// width and per-window service instructions, then closes it.
func drive(s *serveSim, n int, width ktime.Duration, instr uint64) {
	t := ktime.Time(1000)
	s.start(t)
	for i := 0; i < n; i++ {
		t = t.Add(width)
		s.advance(t, instr)
	}
	s.finish(t, 0)
}

// TestServeSimConservation pins the request-accounting invariant: every
// arrival is completed, rejected, or still in flight at the end.
func TestServeSimConservation(t *testing.T) {
	s := newServeSim(testModel(), 7)
	drive(s, 400, 500*ktime.Microsecond, 1_000_000) // 2 instr/ns capacity
	st := &s.stats
	if st.Arrivals == 0 || st.Completed == 0 {
		t.Fatalf("degenerate run: arrivals=%d completed=%d", st.Arrivals, st.Completed)
	}
	if st.Arrivals != st.Completed+st.Rejected+st.InFlightAtEnd {
		t.Errorf("conservation: %d arrivals != %d completed + %d rejected + %d in flight",
			st.Arrivals, st.Completed, st.Rejected, st.InFlightAtEnd)
	}
	if st.Latency.Count() != st.Completed {
		t.Errorf("latency population %d != completed %d", st.Latency.Count(), st.Completed)
	}
}

// TestServeSimDeterminism requires two identical drives to produce
// bit-identical statistics.
func TestServeSimDeterminism(t *testing.T) {
	run := func() *ServeStats {
		s := newServeSim(testModel(), 42)
		drive(s, 300, 500*ktime.Microsecond, 1_000_000)
		return &s.stats
	}
	a, b := run(), run()
	if a.Arrivals != b.Arrivals || a.Completed != b.Completed ||
		a.ClonesCancelled != b.ClonesCancelled || a.PeakInFlight != b.PeakInFlight {
		t.Fatalf("replays diverge: %+v vs %+v", a, b)
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if a.Latency.Quantile(q) != b.Latency.Quantile(q) {
			t.Errorf("Quantile(%v) diverges: %d vs %d", q, a.Latency.Quantile(q), b.Latency.Quantile(q))
		}
	}
}

// TestServeSimCapacityCoupling is the model's core property: the identical
// offered load served with less capacity per unit time must show a longer
// tail — this is the channel through which monitoring overhead becomes
// tail latency.
func TestServeSimCapacityCoupling(t *testing.T) {
	fast := newServeSim(testModel(), 11)
	drive(fast, 400, 500*ktime.Microsecond, 1_000_000)
	slow := newServeSim(testModel(), 11)
	drive(slow, 400, 500*ktime.Microsecond, 700_000) // 30% less capacity
	// Paired seeds: both saw the same arrival instants and demands.
	if fast.stats.Arrivals != slow.stats.Arrivals {
		t.Fatalf("offered load not paired: %d vs %d arrivals", fast.stats.Arrivals, slow.stats.Arrivals)
	}
	fp99 := fast.stats.Latency.Quantile(0.99)
	sp99 := slow.stats.Latency.Quantile(0.99)
	if sp99 <= fp99 {
		t.Errorf("slow capacity p99 %d <= fast p99 %d; capacity is not coupled to latency", sp99, fp99)
	}
}

// TestServeSimCloneCancellation checks cancel-on-first-complete accounting:
// with one 2-clone tier, every completion kills exactly one sibling.
func TestServeSimCloneCancellation(t *testing.T) {
	m := Serve{
		Name:           "hedged",
		Tiers:          []Tier{{Name: "only", Share: 1, Replicas: 3, Clones: 2, DemandInstr: 30_000}},
		ArrivalsPerSec: 4000,
		MaxInFlight:    1024,
	}
	s := newServeSim(m, 3)
	drive(s, 200, 500*ktime.Microsecond, 1_000_000)
	st := &s.stats
	if st.Completed == 0 {
		t.Fatal("no completions")
	}
	if st.ClonesCancelled != st.Completed {
		t.Errorf("cancelled %d != completed %d: each hedged completion must cancel exactly one sibling",
			st.ClonesCancelled, st.Completed)
	}
	// Clones above Replicas are capped there.
	over := Tier{Replicas: 2, Clones: 5}
	if got := over.clones(); got != 2 {
		t.Errorf("clones() = %d, want capped at 2 replicas", got)
	}
}

// TestServeSimAdmissionControl drives an overloaded tiny-cap service and
// requires rejections to be counted, not dropped.
func TestServeSimAdmissionControl(t *testing.T) {
	m := testModel()
	m.MaxInFlight = 2
	m.ArrivalsPerSec = 50_000
	s := newServeSim(m, 5)
	drive(s, 100, 500*ktime.Microsecond, 200_000)
	st := &s.stats
	if st.Rejected == 0 {
		t.Fatal("overloaded 2-slot service rejected nothing")
	}
	if st.Arrivals != st.Completed+st.Rejected+st.InFlightAtEnd {
		t.Errorf("conservation under rejection: %d != %d+%d+%d",
			st.Arrivals, st.Completed, st.Rejected, st.InFlightAtEnd)
	}
	if st.PeakInFlight > 2 {
		t.Errorf("peak in flight %d exceeds the cap of 2", st.PeakInFlight)
	}
}

// TestServeSimClosedLoop checks the aggregate think-population generator: a
// one-user loop never holds more than one request in flight, and a large
// population behaves like an open source without per-user state.
func TestServeSimClosedLoop(t *testing.T) {
	m := testModel().ClosedLoop(1, 100*ktime.Microsecond)
	s := newServeSim(m, 9)
	drive(s, 300, 500*ktime.Microsecond, 1_000_000)
	if s.stats.PeakInFlight > 1 {
		t.Errorf("single-user loop reached %d in flight", s.stats.PeakInFlight)
	}
	if s.stats.Completed == 0 {
		t.Error("single-user loop completed nothing")
	}

	big := testModel().ClosedLoop(3_000_000, 600*ktime.Second) // 5000 req/s offered
	b := newServeSim(big, 9)
	drive(b, 300, 500*ktime.Microsecond, 1_000_000)
	if b.stats.Arrivals == 0 || b.stats.Completed == 0 {
		t.Fatalf("3M-user loop degenerate: %+v", b.stats)
	}
	if b.stats.Arrivals != b.stats.Completed+b.stats.Rejected+b.stats.InFlightAtEnd {
		t.Error("conservation fails for the closed loop")
	}
}

// TestServeProgramSeam checks the wrapper's program plumbing: the serve
// script lives in its own memory region, and PAPI/LiMiT-style Instrument
// calls reach the inner walk.
func TestServeProgramSeam(t *testing.T) {
	sv := NewServe()
	script := sv.Script()
	if script.TotalInstr() != sv.TotalInstr {
		t.Errorf("script budget %d != model budget %d", script.TotalInstr(), sv.TotalInstr)
	}
	for _, ph := range script.Phases {
		if ph.Mem.Base != regionServe {
			t.Errorf("phase %q in region %#x, want the serve region", ph.Name, ph.Mem.Base)
		}
	}
	sp := sv.Program(1)
	sp.Instrument(nil, 12345, nil)
	if sp.inner.hookEvery != 12345 {
		t.Error("Instrument did not reach the inner script walk")
	}
	if got := sp.Script().TotalInstr(); got != sv.TotalInstr {
		t.Errorf("Script() through the wrapper reports %d instructions", got)
	}
}
