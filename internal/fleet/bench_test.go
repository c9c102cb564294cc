package fleet

import (
	"sync"
	"testing"

	"corropt/internal/topology"
)

// The benchmark fleet: 30 replicas of the 34,560-link Clos the experiment
// suite calls ScaleLarge — 1,036,800 links total, exceeding the paper's 15
// production DCNs / ~350K links. The replicas share one *Topology, so
// partitioning and sub-topology construction are shared and only the
// per-shard Networks are replicated, exactly the shape a real fleet of
// same-generation DCNs has.
const benchDCNs = 30

var benchFleetOnce = sync.OnceValues(func() ([]DCN, []Event) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods:               72,
		ToRsPerPod:         56,
		AggsPerPod:         6,
		Spines:             144,
		SpineUplinksPerAgg: 24,
		BreakoutSize:       4,
	})
	if err != nil {
		panic(err)
	}
	dcns := make([]DCN, benchDCNs)
	for i := range dcns {
		dcns[i] = DCN{Topo: topo}
	}
	return dcns, synthesizeEvents(dcns, 99, 200_000)
})

// BenchmarkFleetRoute isolates per-event ingress: validation, shard lookup,
// and the pending-queue append. After one warmup pass has grown every
// shard's pending buffer to the capacity this exact event sequence needs,
// Route must not allocate — the 0 allocs/op hotpath floor in
// scripts/bench_floors.txt holds hotalloc's static proof of
// (*Supervisor).Route to the measurement.
func BenchmarkFleetRoute(b *testing.B) {
	dcns, evs := benchFleetOnce()
	sup, err := New(dcns, Config{Workers: 1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	if err := sup.Ingest(evs); err != nil {
		b.Fatalf("warmup Ingest: %v", err)
	}
	if err := sup.Flush(); err != nil {
		b.Fatalf("warmup Flush: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	j := 0
	for i := 0; i < b.N; i++ {
		if err := sup.Route(evs[j]); err != nil {
			b.Fatalf("Route: %v", err)
		}
		if j++; j == len(evs) {
			// Drain outside the timer: Flush is the shard/merge half of the
			// pipeline, measured by BenchmarkFleetThroughput.
			b.StopTimer()
			if err := sup.Flush(); err != nil {
				b.Fatalf("Flush: %v", err)
			}
			b.StartTimer()
			j = 0
		}
	}
	b.StopTimer()
	if err := sup.Flush(); err != nil {
		b.Fatalf("Flush: %v", err)
	}
}

// BenchmarkFleetThroughput measures sustained corruption-event throughput
// over the 1M-link fleet at Workers=1 and the default one-shard-per-segment
// packing. The events/sec metric feeds the bench_floors.txt ratchet via
// scripts/bench_check.sh.
func BenchmarkFleetThroughput(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		dcns, evs := benchFleetOnce()
		sup, err := New(dcns, Config{Workers: 1})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		links := 0
		for _, d := range dcns {
			links += d.Topo.NumLinks()
		}
		if links < 1_000_000 {
			b.Fatalf("fleet has %d links, want >= 1M", links)
		}
		const batch = 20_000
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(evs); lo += batch {
				hi := min(lo+batch, len(evs))
				if err := sup.Ingest(evs[lo:hi]); err != nil {
					b.Fatalf("Ingest: %v", err)
				}
				if err := sup.Flush(); err != nil {
					b.Fatalf("Flush: %v", err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(links), "links")
		b.ReportMetric(float64(len(dcns)), "dcns")
	})
}
