package main

import (
	"fmt"
	"io"
	"math"
)

// worsening is by how much of a's value b is worse than a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the self-check: two full sets of the same binary, back to
// back, must agree within the benchmark's own bounds in either
// direction, or the bounds cannot tell a regression from noise.
func runAA(names []string, o options, countFor func(string) int, stdout, stderr io.Writer) int {
	var sets [2][]*report
	for s := range sets {
		for _, n := range names {
			rep, err := runChild(n, o, countFor(n), stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmarks:", err)
				return 1
			}
			sets[s] = append(sets[s], rep)
		}
	}
	fmt.Fprintf(stdout, "A/A self-check (seed %d): second set against the first, same binary\n", o.seed)
	fmt.Fprintf(stdout, "%-13s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "set A", "set B", "worse by", "bound", "verdict")
	outside := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		for j, d := range endToEndDefs {
			va, vb := a.EndToEnd[j].Value, b.EndToEnd[j].Value
			delta := worsening(d, va, vb)
			verdict := "ok"
			if math.Abs(delta) > d.Bound {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Fprintf(stdout, "%-13s %-14s %14.4f %14.4f %+8.2f%% %6.1f%%  %s\n", a.Workload, d.Name, va, vb, delta*100, d.Bound*100, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(stdout, "%-13s failed ops: %d and %d\n", a.Workload, a.Failed, b.Failed)
			outside++
		}
	}
	if outside > 0 {
		fmt.Fprintf(stdout, "%d comparison(s) outside their bound\n", outside)
		return 1
	}
	fmt.Fprintln(stdout, "every metric within its bound")
	return 0
}
