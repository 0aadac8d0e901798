package bench

import (
	"strings"
	"testing"
)

// TestRunProfileNamesEngineSites is `mccio-bench -experiment
// regression -sites` in-process: a SiteCapture around the regression
// experiment must attribute work to the engine packages.
func TestRunProfileNamesEngineSites(t *testing.T) {
	sc, err := StartSiteCapture()
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := runTrajectory("regression", Options{Scale: 0.1, Seed: 42, Parallel: 1}, nil)
	rep, err := sc.Stop(20)
	if runErr != nil || err != nil {
		t.Fatal(runErr, err)
	}
	if len(rep.Alloc) == 0 || rep.AllocBytes == 0 {
		t.Fatalf("allocation profile empty: %+v", rep)
	}
	// The regression workload spends its time in the planner and the
	// engine; the allocation profile is deterministic enough that at
	// least one attributed site must come from there. (The CPU profile
	// is sampled and can be starved on a loaded host, so it is only
	// checked when it has samples at all.)
	engineSite := func(sites []string) bool {
		for _, fn := range sites {
			if strings.Contains(fn, "collio") || strings.Contains(fn, "datatype") ||
				strings.Contains(fn, "core") {
				return true
			}
		}
		return false
	}
	var allocFns, cpuFns []string
	for _, s := range rep.Alloc {
		allocFns = append(allocFns, s.Func)
	}
	for _, s := range rep.CPU {
		cpuFns = append(cpuFns, s.Func)
	}
	if !engineSite(allocFns) {
		t.Fatalf("no engine function in top alloc sites:\n%s", strings.Join(allocFns, "\n"))
	}
	if len(rep.CPU) > 0 && rep.CPUSeconds <= 0 {
		t.Fatalf("CPU sites present but zero sampled seconds: %+v", rep.CPU)
	}
	for _, tb := range rep.Tables() {
		if tb.Title == "" || len(tb.Headers) == 0 {
			t.Fatalf("bad table: %+v", tb)
		}
	}
}
