package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// contract is the part of BENCHMARK.json the program reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &c, nil
}

// checkMetrics holds got against the want list of BENCHMARK.json: every
// listed metric once, in its unit, a finite number, and nothing else.
func checkMetrics(want []contractMetric, got []metric) []string {
	var errs []string
	seen := map[string]int{}
	units := map[string]string{}
	for _, m := range got {
		seen[m.Name]++
		units[m.Name] = m.Unit
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			errs = append(errs, fmt.Sprintf("%s = %v", m.Name, m.Value))
		}
	}
	for _, w := range want {
		switch {
		case seen[w.Name] != 1:
			errs = append(errs, fmt.Sprintf("%s measured %d times, want once", w.Name, seen[w.Name]))
		case units[w.Name] != w.Unit:
			errs = append(errs, fmt.Sprintf("%s has unit %q, BENCHMARK.json says %q", w.Name, units[w.Name], w.Unit))
		}
		delete(seen, w.Name)
	}
	for _, m := range got {
		if seen[m.Name] > 0 {
			errs = append(errs, fmt.Sprintf("%s is not in BENCHMARK.json", m.Name))
			delete(seen, m.Name)
		}
	}
	return errs
}

// readRecords groups the untraced records of a -json file by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer f.Close() // read-only
	byWorkload := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		if r.Trace == 0 {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return byWorkload, nil
}

// compareFiles prints, per workload and end-to-end metric, the median of
// each file's runs, and returns 1 naming every pair whose medians differ by
// more than the metric's bound in BENCHMARK.json, or whose runs failed a
// check.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ra, err := readRecords(a)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rb, err := readRecords(b)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	code := 0
	for _, w := range c.Workloads {
		if len(ra[w.Name]) == 0 || len(rb[w.Name]) == 0 {
			fmt.Fprintf(stdout, "%s: missing from one file\n", w.Name)
			code = 1
			continue
		}
		for _, side := range [][]record{ra[w.Name], rb[w.Name]} {
			for _, r := range side {
				if !r.Result.Correct {
					fmt.Fprintf(stdout, "%s: a run with seed %d failed its output checks\n", w.Name, r.Seed)
					code = 1
				}
			}
		}
		for _, m := range c.EndToEnd {
			ma, mb := medianOf(ra[w.Name], m.Name), medianOf(rb[w.Name], m.Name)
			diff := (mb - ma) / ma
			verdict := "ok"
			if math.IsNaN(diff) || math.Abs(diff) > m.Bound {
				verdict = fmt.Sprintf("DIFFERS by more than %.0f%%", 100*m.Bound)
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-18s %14.6g %14.6g %-5s %+7.2f%%  %s\n", w.Name, m.Name, ma, mb, m.Unit, 100*diff, verdict)
		}
	}
	return code
}

func medianOf(rs []record, name string) float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return medianF(xs)
}
