package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/prof"
)

// ProfileReport is a SiteCapture's result: the top CPU and allocation
// sites of whatever ran under it, decoded from the runtime's own pprof
// output into a machine-readable table — the "where does plan time go"
// answer without leaving the repo's tooling.
type ProfileReport struct {
	// Scale and Seed echo the profiled workload.
	Scale float64 `json:"scale"`
	Seed  uint64  `json:"seed"`
	// WallSeconds is the profiled wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// CPUSeconds is the total sampled CPU time across all sites.
	CPUSeconds float64 `json:"cpu_seconds"`
	// AllocBytes is the total allocation volume the heap profile saw.
	AllocBytes int64 `json:"alloc_bytes"`
	// CPU and Alloc are the top sites by cumulative value ("cpu" and
	// "alloc_space" sample types respectively).
	CPU   []prof.Site `json:"cpu"`
	Alloc []prof.Site `json:"alloc"`
}

// SiteCapture is an in-flight CPU + allocation capture around
// arbitrary work: StartSiteCapture turns the runtime's CPU profiler
// on, the caller runs whatever it wants profiled, Stop keeps both
// profiles' raw pprof bytes, and Report decodes them into a
// machine-readable ProfileReport. It is the one profiler behind
// mccio-bench: -cpuprofile and -memprofile write its raw bytes and
// -sites decodes the same bytes. Only one capture — and no other CPU
// profiler — can be active per process.
type SiteCapture struct {
	// CPU and Allocs are the raw CPU and "allocs" profiles, in pprof's
	// own encoding; Stop sets them.
	CPU, Allocs []byte
	cpuBuf      bytes.Buffer
	start       time.Time
	wall        float64
}

// StartSiteCapture begins a capture. Every return path must call Stop
// exactly once; until then no other CPU profile can start.
func StartSiteCapture() (*SiteCapture, error) {
	c := &SiteCapture{start: time.Now()}
	if err := pprof.StartCPUProfile(&c.cpuBuf); err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	return c, nil
}

// Stop ends the capture and snapshots the allocation profile.
func (c *SiteCapture) Stop() error {
	pprof.StopCPUProfile()
	c.wall = time.Since(c.start).Seconds()
	c.CPU = c.cpuBuf.Bytes()
	runtime.GC() // flush pending frees so alloc_space is current
	var heapBuf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&heapBuf, 0); err != nil {
		return fmt.Errorf("bench: profile: allocs: %w", err)
	}
	c.Allocs = heapBuf.Bytes()
	return nil
}

// Report decodes a stopped capture into the top n sites by cumulative
// value. Scale and Seed are left for the caller to fill; WallSeconds
// covers start-to-stop.
func (c *SiteCapture) Report(n int) (*ProfileReport, error) {
	if n <= 0 {
		n = 15
	}
	cp, err := prof.Parse(bytes.NewReader(c.CPU))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: decode cpu: %w", err)
	}
	ap, err := prof.Parse(bytes.NewReader(c.Allocs))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: decode allocs: %w", err)
	}
	rep := &ProfileReport{
		WallSeconds: c.wall,
		CPUSeconds:  float64(cp.TotalValue("cpu")) / 1e9,
		AllocBytes:  ap.TotalValue("alloc_space"),
	}
	if rep.CPU, err = cp.Top("cpu", n); err != nil {
		return nil, err
	}
	if rep.Alloc, err = ap.Top("alloc_space", n); err != nil {
		return nil, err
	}
	return rep, nil
}

// fmtSiteVal renders a profile value in its natural unit.
func fmtSiteVal(v int64, unit string) string {
	switch unit {
	case "nanoseconds":
		return fmt.Sprintf("%.3fs", float64(v)/1e9)
	case "bytes":
		return fmt.Sprintf("%.1fMB", float64(v)/1e6)
	}
	return fmt.Sprintf("%d %s", v, unit)
}

// siteTable renders one site list as a Table.
func siteTable(title string, sites []prof.Site) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"func", "flat", "cum"},
	}
	for _, s := range sites {
		t.AddRow(s.Func, fmtSiteVal(s.Flat, s.Unit), fmtSiteVal(s.Cum, s.Unit))
	}
	return t
}

// Tables renders the report for stdout: the CPU sites and the
// allocation sites, cumulative-descending.
func (r *ProfileReport) Tables() []*Table {
	return []*Table{
		siteTable(fmt.Sprintf("Top CPU sites (%.1fs sampled)", r.CPUSeconds), r.CPU),
		siteTable(fmt.Sprintf("Top allocation sites (%.1f MB total)", float64(r.AllocBytes)/1e6), r.Alloc),
	}
}
