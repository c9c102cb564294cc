module corropt/bench

go 1.22

require corropt v0.0.0

replace corropt => ../
