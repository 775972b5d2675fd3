package kleb

import (
	"io"
	"testing"

	"kleb/internal/kernel"
	"kleb/internal/ktime"
	"kleb/internal/session"
	"kleb/internal/telemetry"
)

// BenchmarkWriteChromeTrace renders the telemetry sink of one recorded
// K-LEB collection at 100µs (about 3k samples) as a Chrome trace to
// io.Discard.
func BenchmarkWriteChromeTrace(b *testing.B) {
	script := targetScript(1_000_000_000)
	sink := telemetry.New()
	if _, err := session.Run(session.Spec{
		Profile:   quietProfile(),
		Seed:      1,
		NewTarget: func() kernel.Program { return script.Program() },
		NewTool:   session.Use(New()),
		Config:    stdConfig(100 * ktime.Microsecond),
		Telemetry: sink,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sink.Events())), "events")
}
