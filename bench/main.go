// Command bench is the repository's one benchmark: four named workloads
// over the Figure 13 loop, five end-to-end metrics per workload, and a
// traced run that prices every layer. BENCHMARK.json at the repository root
// is its contract; README.md beside this file explains every choice.
//
//	sh bench/run.sh --workload ctl_lifecycle --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sideWindow is the window a traced run gives each workload other than the
// one named: long enough for a median, short enough that four traced runs
// stay a small share of the driver's budget.
const sideWindow = 2 * time.Second

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a -json file: a result with what produced it.
type record struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Host     host           `json:"host"`
	Samples  map[string]int `json:"samples"`
	Notes    []string       `json:"notes,omitempty"`
	Result   result         `json:"result"`
}

// host is where the numbers were taken. GOMAXPROCS is reported as found;
// the benchmark never sets it.
type host struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostFacts() host {
	h := host{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The checkout the driver runs in is not a git repository; a working
	// copy's HEAD is read straight from .git, without starting a process.
	if b, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			b, err = os.ReadFile(filepath.Join(".git", ref))
			head = strings.TrimSpace(string(b))
			if err != nil {
				head = ref // packed ref: the branch name is the best we have
			}
		}
		h.Commit = head[:min(12, len(head))]
	}
	return h
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	jsonOut := fs.String("json", "", "append one record per run to this file")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	// The result line must hold exactly the metrics BENCHMARK.json lists; a
	// run that measured another set says which, instead of printing a line
	// the driver refuses.
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	h := hostFacts()
	fmt.Fprintf(stdout, "# %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\n", h.GoVersion, h.NProc, h.GOMAXPROCS, h.CPU, h.Commit, *seed)
	fmt.Fprintln(stdout, "# all socket traffic crosses the host's loopback interface; one process, one goroutine per connection")
	if h.GOMAXPROCS < 2 {
		fmt.Fprintln(stdout, "# WARNING: GOMAXPROCS < 2: client and server share one processor, and fleet's parallel flush equals its serial one")
	}

	code := 0
	d := time.Duration(*seconds * float64(time.Second))
	for _, name := range names {
		var metrics []metric
		var out *outcome
		var err error
		if *trace == 1 {
			metrics, out, err = tracedRun(name, fullSizes, *seed, d, sideWindow, filepath.Join("bench", "out"))
		} else {
			var m *measured
			if m, err = measure(name, fullSizes, *seed, d, nil); err == nil {
				metrics, out = m.endToEnd(), &m.outcome
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		want := c.EndToEnd
		if *trace == 1 {
			want = c.PerLayer
		}
		if errs := checkMetrics(want, metrics); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(stderr, "bench: %s: %s\n", name, e)
			}
			return 1
		}
		rec := report(stdout, name, metrics, out)
		rec.Seed, rec.Seconds, rec.Trace, rec.Host = *seed, *seconds, *trace, h
		if !rec.Result.Correct {
			code = 1
		}
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, rec); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fmt.Fprintf(stderr, "bench: encoding result: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// tracedRun is --trace 1. It measures every layer on the workload that is
// its home, so it runs all four: the named one untraced and then traced for
// half the window each (the ratio of their latencies is the tracing overhead,
// and its spans go to outDir), the others traced for side.
func tracedRun(named string, sz sizes, seed uint64, d, side time.Duration, outDir string) ([]metric, *outcome, error) {
	plain, err := measure(named, sz, seed, d/2, nil)
	if err != nil {
		return nil, nil, err
	}
	total := &outcome{}
	var metrics []metric
	for _, name := range workloadNames {
		window := side
		if name == named {
			window = d / 2
		}
		tr := &tracer{}
		m, err := measure(name, sz, seed, window, tr)
		if err != nil {
			return nil, nil, err
		}
		metrics = append(metrics, m.layers...)
		total.attempted += m.attempted
		total.failed += m.failed
		total.notes = append(total.notes, m.notes...)
		if name != named {
			continue
		}
		if err := tr.write(filepath.Join(outDir, "trace-"+name+".jsonl")); err != nil {
			return nil, nil, err
		}
		metrics = append(metrics, metric{"bench.traced_latency_ratio", m.latencyUs / plain.latencyUs, "ratio", m.latencyN})
	}
	total.attempted += plain.attempted
	total.failed += plain.failed
	total.notes = append(total.notes, plain.notes...)
	return metrics, total, nil
}

// report prints every metric by name with its unit and sample count, the
// failed checks, and returns the record of the run.
func report(w io.Writer, name string, metrics []metric, out *outcome) record {
	rec := record{
		Workload: name,
		Samples:  map[string]int{},
		Notes:    out.notes,
		Result:   result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}},
	}
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", name, out.attempted, out.failed)
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-32s %16.6g %-9s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		rec.Result.Metrics[m.Name] = value{m.Value, m.Unit}
		rec.Samples[m.Name] = m.N
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", n)
	}
	return rec
}

func appendRecord(path string, rec record) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("bench: opening %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("bench: closing %s: %w", path, cerr)
		}
	}()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
