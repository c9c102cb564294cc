package experiments

import (
	"bytes"
	"sync"
	"testing"

	"corropt/internal/sim"
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

// replayIDs lists, from the registry, every experiment whose ScaleSmall
// plan hands at least one replay to the pool, so a new replaying driver
// falls under the determinism gates without being named in them.
func replayIDs(t *testing.T) []string {
	t.Helper()
	var ids []string
	for _, e := range List() {
		pl, err := registry[e[0]](Config{Scale: ScaleSmall, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e[0], err)
		}
		if len(pl.replays) > 0 {
			ids = append(ids, e[0])
		}
	}
	return ids
}

// TestParallelRunnerDeterminism pins the runner's determinism contract at
// the experiment level: every driver that replays on the pool must produce
// byte-identical reports for Workers=1 (fully serial, no pool) and
// Workers=8, given the same seed. This is what allows -workers to be a pure
// wall-clock knob.
func TestParallelRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario replay grid; skipped in -short mode")
	}
	for _, id := range replayIDs(t) {
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

// TestDriverAllocCeilings holds each replaying driver's steady-state
// allocations per replay at ScaleSmall, Workers=1 under a ceiling. The plan
// — topology and trace construction — is built once outside the count, and
// what is measured is one sim.RunAll of its replays plus its finish, the
// work that repeated runs of one plan pay. testing.AllocsPerRun replays the
// plan once unmeasured first, and with runs == 1 the count is not averaged.
// Allocation counts are a property of the code, not the machine; the
// ceilings carry 35% or more headroom over the readings beside them for
// small legitimate growth (ticketq read 162,526 before scratch pooling).
func TestDriverAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		id      string
		ceiling float64
	}{
		{"fig14", 3000},    // 2,193
		{"fig1516", 3800},  // 2,811
		{"fig17", 3300},    // 2,433
		{"fig19", 3400},    // 2,523
		{"sec2", 8300},     // 5,849
		{"ext8", 3900},     // 2,889
		{"fleet", 26000},   // 19,136
		{"ticketq", 14000}, // 8,686
		{"fig18", 2100},    // 1,529
		{"sec72", 3300},    // 2,410
		{"sec73", 1800},    // 1,283
		{"fig1", 38400},    // 28,280
	} {
		t.Run(c.id, func(t *testing.T) {
			cfg := Config{Scale: ScaleSmall, Seed: 1, Workers: 1}
			pl, err := registry[c.id](cfg)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(1, func() {
				results, err := sim.RunAll(cfg.Workers, pl.replays)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := pl.finish(results)
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

// TestRunManyMatchesRun pins the batch contract: concatenating many
// experiments' replays into one sim.RunAll list (RunMany) must produce
// reports byte-identical to running each id on its own, for any worker
// count. The id list is every replaying driver, which covers the slicing
// of the global result list back to each plan.
func TestRunManyMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment replay batch; skipped in -short mode")
	}
	ids := replayIDs(t)
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

// TestRunManyUnknownID pins the fail-fast path: an unknown id anywhere in
// the batch rejects the whole call before any scenario runs.
func TestRunManyUnknownID(t *testing.T) {
	if _, err := RunMany([]string{"fig14", "no-such-experiment"}, Config{Scale: ScaleSmall, Seed: 1}); err == nil {
		t.Fatal("RunMany accepted an unknown experiment id")
	}
}

// TestConcurrentRunManyBatches runs two overlapping RunMany batches
// concurrently — workers from both pools building inputs, replaying on their
// own scratch, and driving the runner at once — and checks both produce the
// bytes a quiet serial run does.
func TestConcurrentRunManyBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two experiment batches; skipped in -short mode")
	}
	ids := []string{"fig14", "sec2"}
	cfg := Config{Scale: ScaleSmall, Seed: 1, Workers: 4}

	want := make([][]byte, len(ids))
	for i, id := range ids {
		want[i] = renderReport(t, id, Config{Scale: ScaleSmall, Seed: 1, Workers: 1})
	}

	var wg sync.WaitGroup
	got := make([][]*Report, 2)
	errs := make([]error, 2)
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[b], errs[b] = RunMany(ids, cfg)
		}()
	}
	wg.Wait()
	for b := 0; b < 2; b++ {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		for i, id := range ids {
			if !bytes.Equal(renderTSV(t, got[b][i]), want[i]) {
				t.Errorf("batch %d: %s differs from serial reference", b, id)
			}
		}
	}
}
