package telemetry

import (
	"io"
	"sync"
)

// SharedSink wraps a Sink for concurrent use: many shard goroutines folding
// finished runs in while HTTP scrape handlers take consistent snapshots
// out. The plain Sink stays lock-free (its single-owner emit path is the
// ~8.5 ns one BenchmarkEmitEnabled gates); the daemon pays for
// synchronization only at the aggregation boundary, where merges are
// coarse-grained.
type SharedSink struct {
	mu sync.Mutex
	// sink is the wrapped aggregate. guarded by mu
	sink *Sink
}

// NewShared returns a shared sink whose trace ring retains up to capacity
// events (capacity <= 0 selects DefaultEvents).
func NewShared(capacity int) *SharedSink {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	return &SharedSink{sink: NewWithCapacity(capacity)}
}

// Ingest folds one finished run's metrics into the aggregate. Per-run
// trace events are not ingested (a trace belongs to one run); the shared
// ring retains fleet-level events recorded through Emit.
func (s *SharedSink) Ingest(o *Sink) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink.Merge(o)
}

// Emit runs fn against the wrapped sink under the lock. It is the write
// path for fleet-level events (FleetNode, FleetRound) that belong to the
// aggregate itself rather than to any one run.
func (s *SharedSink) Emit(fn func(*Sink)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.sink)
}

// Snapshot returns a consistent point-in-time copy of the aggregate:
// a cloned registry plus the retained event window. Rendering happens on
// the copy, so a scrape never holds the ingest lock while formatting.
func (s *SharedSink) Snapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, err := s.sink.Registry().Clone()
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Registry:  reg,
		Events:    s.sink.Events(),
		Truncated: s.sink.Truncated(),
	}, nil
}

// Snapshot is a point-in-time copy of a SharedSink, safe to render or
// inspect after the source moves on.
type Snapshot struct {
	Registry *Registry
	// Events is the retained trace window, oldest-first.
	Events []Event
	// Truncated counts events evicted from the retention ring before this
	// snapshot was taken.
	Truncated uint64
}

// WritePrometheus renders the snapshot's registry as text exposition.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	return s.Registry.WritePrometheus(w)
}

// WriteChromeTrace renders the snapshot's event window as Chrome trace-
// event JSON.
func (s *Snapshot) WriteChromeTrace(w io.Writer) error {
	return WriteChromeEvents(w, s.Events)
}
