// Command corropt-sim runs and checks declarative scenarios (see scenarios/
// and DESIGN.md §7.6): seeded trace-driven replays of a Clos data center
// under the chosen mitigation policies and capacity constraints.
//
// Usage:
//
//	corropt-sim run scenarios/fig14_small.json
//	corropt-sim run -golden scenarios/flap_storm.json
//	corropt-sim validate scenarios/*.json
package main

import (
	"fmt"
	"os"
)

const usage = `usage:
  corropt-sim run [-workers N] [-golden | -write-golden] <scenario.json>
  corropt-sim validate <scenario.json>...`

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			runScenarioCmd(os.Args[2:])
			return
		case "validate":
			validateCmd(os.Args[2:])
			return
		}
	}
	fmt.Fprintln(os.Stderr, usage)
	os.Exit(2)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "corropt-sim: "+format+"\n", args...)
	os.Exit(1)
}
