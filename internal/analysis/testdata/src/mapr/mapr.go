// Package mapr is the maprange golden package: map iteration that can leak
// runtime map order into output is flagged; the collect-then-sort idiom,
// integer reductions, and annotated loops are not.
package mapr

import (
	"fmt"
	"sort"
)

// stringConcat builds output in map order: the canonical bug.
func stringConcat(m map[string]int) string {
	out := ""
	for k := range m { // want `map iteration order`
		out += k
	}
	return out
}

// directPrint emits lines in map order.
func directPrint(m map[string]int) {
	for k, v := range m { // want `map iteration order`
		fmt.Println(k, v)
	}
}

// appendNoSort collects values but never sorts them.
func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order`
		keys = append(keys, k)
	}
	return keys
}

// collectThenSort is the sanctioned idiom.
func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectThenSortSlice uses sort.Slice on a struct collector.
func collectThenSortSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// sumReduce is a commutative integer reduction.
func sumReduce(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// floatReduce folds floats in map order: float addition is not
// associative, so this is no commutative reduction — one finding, at the
// loop, not a second at the fold.
func floatReduce(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want `map iteration order`
		total += v
	}
	return total
}

// countReduce uses ++ and a guarded reduction.
func countReduce(m map[string]int) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		}
	}
	return n
}

// setCopy inserts into another map: order-free.
func setCopy(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// annotated documents why ordering cannot escape.
func annotated(m map[string]int) {
	for k, v := range m { //lint:allow maprange golden negative case: sink discards ordering
		sink(k, v)
	}
}

func sink(string, int) {}

// sortOtherVar sorts a different slice than the collector: still flagged.
func sortOtherVar(m map[string]int) []string {
	var keys []string
	other := []string{"b", "a"}
	for k := range m { // want `map iteration order`
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}
