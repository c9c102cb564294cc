package experiments

import (
	"bytes"
	"testing"
)

// renderReport renders a report to its canonical TSV bytes.
func renderReport(t *testing.T, id string, cfg Config) []byte {
	t.Helper()
	rep, err := Run(id, cfg)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", id, cfg.Workers, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelRunnerDeterminism pins the runner's determinism contract at
// the experiment level: every parallelized driver must produce
// byte-identical reports for Workers=1 (fully serial, no pool) and
// Workers=8, given the same seed. This is what allows -workers to be a pure
// wall-clock knob.
func TestParallelRunnerDeterminism(t *testing.T) {
	// Note: the two renders per id also pin the memo layer — the first
	// render builds each topology and trace (cold cache), the second reuses
	// the cached copies, and the byte-equality check proves a cache hit is
	// indistinguishable from a rebuild.
	if testing.Short() {
		t.Skip("multi-scenario replay grid; skipped in -short mode")
	}
	for _, id := range []string{"fig14", "fig1516", "fig17", "fig19", "sec2", "ext8", "fleet", "ticketq"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial := renderReport(t, id, Config{Scale: ScaleSmall, Seed: 1, Workers: 1})
			parallel := renderReport(t, id, Config{Scale: ScaleSmall, Seed: 1, Workers: 8})
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("%s: Workers=1 and Workers=8 reports differ\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
					id, serial, parallel)
			}
		})
	}
}

// TestDriverAllocCeilings holds each scenario-sharded driver's steady-state
// allocations per replay at ScaleSmall, Workers=1 under a ceiling.
// testing.AllocsPerRun replays the driver once unmeasured first, so the
// measured replay runs over the memoized topology and trace — one-time
// construction is not what repeated runs pay — and with runs == 1 the count
// is not averaged. Allocation counts are a property of the code, not the
// machine; the ceilings carry ~25-35% headroom over the readings beside them
// for small legitimate growth (ticketq read 162,526 before scratch pooling).
func TestDriverAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		id      string
		ceiling float64
	}{
		{"fig14", 3000},    // 2,237
		{"fig1516", 3800},  // 2,867
		{"fig17", 3300},    // 2,483
		{"fig19", 3400},    // 2,605
		{"sec2", 8300},     // 6,358
		{"ext8", 3900},     // 2,963
		{"fleet", 26000},   // 19,835
		{"ticketq", 14000}, // 10,912
	} {
		t.Run(c.id, func(t *testing.T) {
			allocs := testing.AllocsPerRun(1, func() {
				rep, err := Run(c.id, Config{Scale: ScaleSmall, Seed: 1, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Rows) == 0 {
					t.Fatalf("%s produced no rows", c.id)
				}
			})
			t.Logf("%v allocs per replay, ceiling %v", allocs, c.ceiling)
			if allocs > c.ceiling {
				t.Errorf("allocs per replay exceed the ceiling")
			}
		})
	}
}

// renderTSV renders an already-built report to its canonical TSV bytes.
func renderTSV(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunManyMatchesRun pins the batch contract: flattening many
// experiments into one global scenario list (RunMany) must produce reports
// byte-identical to running each id on its own pool, for any worker count.
// The id list mixes every sharded driver with serial drivers (fig18,
// sec72) to cover the fallback path and the slicing of the global result
// list back to each plan.
func TestRunManyMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment replay batch; skipped in -short mode")
	}
	ids := []string{"fig14", "fig1516", "fig17", "fig19", "sec2", "ext8", "fleet", "ticketq", "fig18", "sec72"}
	cfg := Config{Scale: ScaleSmall, Seed: 1, Workers: 8}
	batch, err := RunMany(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serialBatch, err := RunMany(ids, Config{Scale: ScaleSmall, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got := renderTSV(t, batch[i])
		if want := renderReport(t, id, cfg); !bytes.Equal(got, want) {
			t.Errorf("%s: RunMany report differs from individual Run\n--- RunMany ---\n%s\n--- Run ---\n%s", id, got, want)
		}
		if serial := renderTSV(t, serialBatch[i]); !bytes.Equal(got, serial) {
			t.Errorf("%s: RunMany Workers=8 and Workers=1 reports differ", id)
		}
	}
}

// TestFleetShardsInvariance pins the fleet driver's second performance
// knob: Config.Shards repacks the fleet supervisor's segments into
// different shard sets, and — like Workers — must never change a byte of
// the report, including the supervisor-replay note.
func TestFleetShardsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay; skipped in -short mode")
	}
	ref := renderReport(t, "fleet", Config{Scale: ScaleSmall, Seed: 1, Workers: 1, Shards: 1})
	for _, tc := range []Config{
		{Scale: ScaleSmall, Seed: 1, Workers: 8, Shards: 0},
		{Scale: ScaleSmall, Seed: 1, Workers: 3, Shards: 5},
	} {
		if got := renderReport(t, "fleet", tc); !bytes.Equal(got, ref) {
			t.Errorf("Shards=%d Workers=%d report differs from Shards=1 Workers=1\n--- got ---\n%s\n--- want ---\n%s",
				tc.Shards, tc.Workers, got, ref)
		}
	}
}

// TestRunManyUnknownID pins the fail-fast path: an unknown id anywhere in
// the batch rejects the whole call before any scenario runs.
func TestRunManyUnknownID(t *testing.T) {
	if _, err := RunMany([]string{"fig14", "no-such-experiment"}, Config{Scale: ScaleSmall, Seed: 1}); err == nil {
		t.Fatal("RunMany accepted an unknown experiment id")
	}
}
