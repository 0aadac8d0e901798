package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prof"
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
	if err := sc.Stop(); runErr != nil || err != nil {
		t.Fatal(runErr, err)
	}
	rep, err := sc.Report(20)
	if err != nil {
		t.Fatal(err)
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

// TestSiteCaptureRawAndDecoded: one capture yields the raw CPU and
// allocs profiles -cpuprofile and -memprofile write — pprof payloads
// prof.Parse reads — and -sites' report is decoded from those very
// bytes, not from a second capture.
func TestSiteCaptureRawAndDecoded(t *testing.T) {
	sc, err := StartSiteCapture()
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := runTrajectory("regression", Options{Scale: 0.05, Seed: 42, Parallel: 1}, nil)
	if err := sc.Stop(); runErr != nil || err != nil {
		t.Fatal(runErr, err)
	}
	cpu, err := prof.Parse(bytes.NewReader(sc.CPU))
	if err != nil {
		t.Fatalf("raw CPU profile: %v", err)
	}
	allocs, err := prof.Parse(bytes.NewReader(sc.Allocs))
	if err != nil {
		t.Fatalf("raw allocs profile: %v", err)
	}
	rep, err := sc.Report(5)
	if err != nil {
		t.Fatal(err)
	}
	if want := allocs.TotalValue("alloc_space"); want == 0 || rep.AllocBytes != want {
		t.Errorf("report alloc_bytes %d, raw allocs profile %d", rep.AllocBytes, want)
	}
	if want := float64(cpu.TotalValue("cpu")) / 1e9; rep.CPUSeconds != want {
		t.Errorf("report cpu_seconds %v, raw CPU profile %v", rep.CPUSeconds, want)
	}
	for _, c := range []struct {
		got   []prof.Site
		p     *prof.Profile
		typ   string
		table int
	}{{rep.CPU, cpu, "cpu", 0}, {rep.Alloc, allocs, "alloc_space", 1}} {
		want, err := c.p.Top(c.typ, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.got) != len(want) {
			t.Fatalf("%s: report has %d sites, raw profile's top has %d", c.typ, len(c.got), len(want))
		}
		rows := rep.Tables()[c.table].Rows
		for i := range want {
			if c.got[i] != want[i] || rows[i][0] != want[i].Func {
				t.Errorf("%s site %d: report %+v, table %q, raw profile %+v", c.typ, i, c.got[i], rows[i][0], want[i])
			}
		}
	}
	if rep.WallSeconds <= 0 {
		t.Errorf("wall_seconds %v", rep.WallSeconds)
	}
}
