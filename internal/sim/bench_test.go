package sim

import (
	"testing"
	"time"

	"corropt/internal/faults"
	"corropt/internal/rngutil"
)

// BenchmarkSimEventLoop measures the trace-driven event loop end to end and
// reports ns/event. With incremental penalty accounting, settle/accrue are
// O(1) per event instead of an O(#links) TotalPenalty rescan — this is the
// per-event speedup the parallel experiment runner multiplies across
// scenarios.
func BenchmarkSimEventLoop(b *testing.B) {
	topo := simTopo(b)
	horizon := 60 * 24 * time.Hour
	inj, err := faults.NewInjector(topo, simTech(),
		faults.InjectorConfig{FaultsPerLinkPerDay: 0.01},
		rngutil.New(9).Split("bench-trace"))
	if err != nil {
		b.Fatal(err)
	}
	trace := inj.Generate(horizon)
	if len(trace) == 0 {
		b.Fatal("empty trace")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Seed: 10})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(trace, horizon)
		if err != nil {
			b.Fatal(err)
		}
		// Every fault report and every repair completion is at least one
		// penalty-changing event; samples settle the integral too.
		events += res.CorruptionReports + res.TicketsOpened + len(res.Samples)
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}
