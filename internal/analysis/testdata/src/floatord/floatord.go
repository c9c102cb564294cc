// Package floatord is the golden for maprange's fold rule in a package
// outside its config: += / -= (and x = x ± y) folds of floating-point
// accumulators over map iteration or channel arrival order are flagged;
// sorted-key sweeps, integer folds, unsorted key collection, per-key
// accumulators that die inside the loop, and annotated folds are not.
package floatord

import "sort"

// mapSum is the canonical bug: float terms arrive in randomized map order.
func mapSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want `order-sensitive floating-point accumulation folds map values in iteration order`
	}
	return total
}

// mapSumAssign spells the fold as x = x + y; same bug.
func mapSumAssign(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total = total + v // want `folds map values in iteration order`
	}
	return total
}

// fieldSub folds into a struct field through -=; fields outlive any loop.
type acc struct{ sum float64 }

func (a *acc) fieldSub(m map[int]float64) {
	for _, v := range m {
		a.sum -= v // want `folds map values in iteration order`
	}
}

// chanSum merges goroutine results in arrival order.
func chanSum(ch chan float64) float64 {
	sum := 0.0
	for v := range ch {
		sum += v // want `folds channel-received values in arrival order`
	}
	return sum
}

// recvSum accumulates direct receives; order-sensitive with or without a
// range loop.
func recvSum(ch chan float64, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += <-ch // want `folds channel-received values in arrival order`
	}
	return sum
}

// sortedSum is the sanctioned idiom: collect keys, sort, fold in key order.
func sortedSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// intSum folds integers: addition is associative there.
func intSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// unsortedKeys leaks map order into a slice, which only the packages in
// maprange's config are held to.
func unsortedKeys(m map[string]float64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// perKey folds into an accumulator that is declared inside the map loop and
// dies with each iteration: map order never reaches a surviving float.
func perKey(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m {
		t := 0.0
		for _, v := range vs {
			t += v
		}
		out[k] = t
	}
	return out
}

// allowedSum documents an accepted order drift with the standard annotation.
func allowedSum(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		//lint:allow maprange tolerance-checked aggregate, drift accepted
		s += v
	}
	return s
}
