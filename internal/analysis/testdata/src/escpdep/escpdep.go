// Package escpdep is the dependency half of the cross-package escapes
// golden: roots in escp call into it, and its escapes surface at the root's
// declaration there. Reserve's site-level sanction holds across the package
// boundary because sanctions are read when this package is summarized.
package escpdep

var buf []int

// Grow's slice escapes; crossRoot in escp reports it with the chain.
func Grow(n int) []int {
	return make([]int, n) // gc:escapes
}

// Reserve's growth is sanctioned at the site.
func Reserve(x int) {
	//lint:allow escapes amortized growth, held by the floor
	buf = append(buf, x) // gc:escapes
}
