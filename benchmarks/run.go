package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/explain"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// workloadNames are the benchmark's workloads in run order.
var workloadNames = []string{"sim-lockstep", "sim-wide", "serve-hot", "serve-cold"}

// scenario is one workload: one set of inputs the benchmark runs. A pass (sim-*) or
// slice (serve-*) is the unit the end-to-end metrics are medians over.
type scenario interface {
	describe() string
	unit() string
	defaultPasses() int
	opsPerPass() int
	// setup generates the inputs from the seed, checks the program's
	// outputs in depth and warms it; close undoes it, so set-up can be
	// repeated.
	setup() error
	close() error
	// pass runs pass/slice idx and checks every output. sp is nil on
	// the timed passes.
	pass(idx int, sp *spanRecorder, parent int) passResult
	latency(passes []passResult) (p50, p95 float64, samples int)
}

func newScenario(name string, seed uint64, smoke bool) (scenario, error) {
	switch name {
	case "sim-lockstep":
		return newSimWorkload(lockstepGrid(smoke), seed, smoke), nil
	case "sim-wide":
		return newSimWorkload(wideGrid(smoke), seed, smoke), nil
	case "serve-hot":
		return newServeWorkload(name, hotShape(smoke), seed), nil
	case "serve-cold":
		return newServeWorkload(name, coldShape(smoke), seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// passResult is what one pass/slice did and what it cost the host.
type passResult struct {
	ops       int
	failed    int
	firstErr  string
	lat       []float64 // host ms per op: in row order on sim-*, per client on serve-*
	wallS     float64
	cpuS      float64
	mallocs   uint64
	peakRSSMB float64

	sim   []trace.Result // sim-*: one result per row
	serve *sliceTally    // serve-*: what the clients saw
}

func (r *passResult) fail(msg string) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = msg
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark since the
// last resetPeakRSS. VmHWM belongs to this process image alone, unlike
// ru_maxrss, which a child inherits from the process that started it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's high-water mark from what is left, so the next reading is
// the peak of the pass alone — not of the set-up's functional pass
// (real bytes and sieve buffers: 175 MB against the simulator's 45) or
// of whichever earlier pass the collector let grow furthest. Where the
// kernel does not offer the reset, readings stay the process's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// measuredPass runs one pass from a collected heap and records its
// wall time, CPU time, heap allocations and peak resident set.
func measuredPass(w scenario, idx int, sp *spanRecorder, parent int) passResult {
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	r := w.pass(idx, sp, parent)
	r.wallS = time.Since(t0).Seconds()
	r.cpuS = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.peakRSSMB = peakRSSMB()
	return r
}

// options select and size one workload run.
type options struct {
	workload string
	seed     uint64
	trace    bool
	smoke    bool
	seconds  float64 // > 0: time the passes for this long instead of counting them
	passes   int     // > 0: this many timed passes/slices
	outDir   string
}

// metricValue is one reported metric.
type metricValue struct {
	Name    string    `json:"name"`
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	PerPass []float64 `json:"per_pass,omitempty"`
}

// report is everything one workload run produced.
type report struct {
	Workload      string        `json:"workload"`
	Description   string        `json:"description"`
	Seed          uint64        `json:"seed"`
	Smoke         bool          `json:"smoke"`
	Unit          string        `json:"unit"`
	Passes        int           `json:"passes"`
	DefaultPasses int           `json:"default_passes"`
	OpsPerPass    int           `json:"ops_per_pass"`
	Seconds       float64       `json:"seconds,omitempty"`
	SetupRuns     int           `json:"setup_runs"`
	Attempted     int           `json:"attempted"`
	Failed        int           `json:"failed"`
	FailedShare   float64       `json:"failed_share"`
	FirstError    string        `json:"first_error,omitempty"`
	ModelGain     float64       `json:"model_gain,omitempty"`
	EndToEnd      []metricValue `json:"end_to_end"`
	PerLayer      []metricValue `json:"per_layer,omitempty"`
	Micro         []microRow    `json:"micro,omitempty"`
	Spans         []spanSummary `json:"spans,omitempty"`
	TraceDir      string        `json:"trace_dir,omitempty"`
}

// shortSetup is the set-up length below which set-up is repeated and
// its median reported: a short set-up is mostly start-up noise, a long
// one is a steady stretch of CPU-bound work.
const shortSetup = 1500 * time.Millisecond

// runWorkload sets a workload up, times its passes with every
// telemetry sink and the tracing off, and, when asked, makes the traced
// pass that fills the per-layer ledger.
func runWorkload(o options, log io.Writer) (*report, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	w, err := newScenario(o.workload, o.seed, o.smoke)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: o.workload, Seed: o.seed, Smoke: o.smoke, Unit: w.unit(),
		DefaultPasses: w.defaultPasses(), Seconds: o.seconds}

	preSetup := time.Since(processStart)
	var setups []float64
	for {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		d := time.Since(t0)
		setups = append(setups, (preSetup + d).Seconds())
		if d > shortSetup || len(setups) == 3 || o.smoke {
			break
		}
		if err := w.close(); err != nil {
			return nil, fmt.Errorf("%s: closing set-up: %w", o.workload, err)
		}
	}
	defer w.close()
	rep.Description, rep.OpsPerPass, rep.SetupRuns = w.describe(), w.opsPerPass(), len(setups)

	want := w.defaultPasses()
	if o.passes > 0 {
		want = o.passes
	}
	// A traced run has to fit the traced pass, the stage replica and the
	// micro-table into the same -seconds, so its timed phase (which then
	// only feeds ratios against the traced pass) gets the smaller part.
	budget := o.seconds
	if o.trace {
		budget *= 0.4
	}
	var timed []passResult
	start := time.Now()
	for i := 0; ; i++ {
		if o.seconds > 0 {
			// Stop when the budget is spent, counting half of the next
			// pass against it; never with fewer than three samples.
			spent := time.Since(start).Seconds()
			if i >= 3 && spent+spent/float64(i)/2 > budget {
				break
			}
		} else if i >= want {
			break
		}
		p := measuredPass(w, i, nil, -1)
		timed = append(timed, p)
		rep.Attempted += p.ops
		rep.Failed += p.failed
		if rep.FirstError == "" {
			rep.FirstError = p.firstErr
		}
		fmt.Fprintf(log, "  %s %d: %.3f s wall, %.3f s cpu, %d failed\n", w.unit(), i, p.wallS, p.cpuS, p.failed)
	}
	rep.Passes = len(timed)
	rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted)
	rep.EndToEnd = endToEnd(w, timed, median(setups))
	if sw, ok := w.(*simWorkload); ok {
		rep.ModelGain = sw.modelGain()
	}
	if !o.trace {
		return rep, nil
	}
	if err := tracedPass(o, w, timed, rep, log); err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", o.workload, err)
	}
	return rep, nil
}

// endToEnd reduces the timed passes to the end-to-end metrics: each is
// the median over the passes, whose values are kept for printing.
func endToEnd(w scenario, timed []passResult, setupS float64) []metricValue {
	p50, p95, samples := w.latency(timed)
	vals := map[string]metricValue{
		"op_p50_ms": {Value: p50, Samples: samples},
		"op_p95_ms": {Value: p95, Samples: samples},
		"setup_s":   {Value: setupS},
	}
	for name, f := range map[string]func(passResult) float64{
		"ops_per_s":     func(p passResult) float64 { return float64(p.ops) / p.wallS },
		"cpu_ms_per_op": func(p passResult) float64 { return p.cpuS * 1e3 / float64(p.ops) },
		"allocs_per_op": func(p passResult) float64 { return float64(p.mallocs) / float64(p.ops) },
		"peak_rss_mb":   func(p passResult) float64 { return p.peakRSSMB },
	} {
		v, per := medianOfSlices(timed, f)
		vals[name] = metricValue{Value: v, Samples: len(timed), PerPass: per}
	}
	out := make([]metricValue, len(endToEndDefs))
	for i, d := range endToEndDefs {
		v := vals[d.Name]
		v.Name, v.Unit = d.Name, d.Unit
		out[i] = v
	}
	return out
}

// tracedPass re-runs one pass under the CPU profiler with spans
// recorded around every call into a layer, then measures the stage
// replica, the micro-table and the telemetry costs. Nothing here feeds
// the end-to-end numbers.
func tracedPass(o options, w scenario, timed []passResult, rep *report, log io.Writer) error {
	m := make(map[string]float64)
	sp := newSpanRecorder()
	root := sp.begin("traced-"+w.unit(), o.workload, -1)

	var profile bytes.Buffer
	profiling := pprof.StartCPUProfile(&profile) == nil
	traced := measuredPass(w, len(timed), sp, root)
	if profiling {
		pprof.StopCPUProfile()
	}
	if traced.failed > 0 {
		return fmt.Errorf("%d of %d ops failed: %s", traced.failed, traced.ops, traced.firstErr)
	}
	wall, _ := medianOfSlices(timed, func(p passResult) float64 { return p.wallS })
	m["bench.trace_overhead_ratio"] = traced.wallS / wall
	if profiling {
		shares, err := cpuShares(profile.Bytes())
		if err != nil {
			return err
		}
		for l, s := range shares {
			m[l+".cpu_share"] = s
		}
	}

	switch w := w.(type) {
	case *simWorkload:
		w.layerMetrics(timed, m)
		if w.grid.telemetry {
			if err := simTelemetry(w, sp, root, m); err != nil {
				return err
			}
		}
	case *serveWorkload:
		w.layerMetrics(traced, m)
		if err := w.stageReplica(sp, root, m); err != nil {
			return err
		}
		if w.shape.telemetry {
			if err := serveTelemetry(w, sp, root, timed, m); err != nil {
				return err
			}
		}
	}

	div := 1
	if o.smoke {
		div = 200
	}
	for _, d := range microDefs {
		id := sp.begin("micro", d.name, root)
		r := measureMicro(d, div)
		sp.end(id)
		m[d.name] = r.Value
		rep.Micro = append(rep.Micro, r)
	}
	sp.end(root)

	for _, d := range perLayerDefs {
		rep.PerLayer = append(rep.PerLayer, metricValue{Name: d.Name, Value: m[d.Name], Unit: d.Unit})
	}
	rep.Spans = summarizeSpans(sp.spans)
	rep.TraceDir = o.outDir
	fmt.Fprintf(log, "  traced %s: %.3f s wall (%.2fx untraced)\n", w.unit(), traced.wallS, m["bench.trace_overhead_ratio"])
	return writeTrace(o.outDir, sp.spans, profile.Bytes())
}

// simTelemetry measures what each simulator sink costs when attached:
// the scarcest mccio write row (the row every sink has events on) run
// with the sink ÷ without. The four variants take turns three times, so
// a drifting host slows them alike, and each keeps its fastest run.
func simTelemetry(w *simWorkload, sp *spanRecorder, parent int, m map[string]float64) error {
	var row simRow
	for _, r := range w.rows {
		if r.strategy == "mccio" && r.op == "write" && r.mem == w.grid.mems[0] {
			row = r
		}
	}
	sinks := []struct {
		name   string
		attach func(*bench.Spec)
	}{
		{"off", func(*bench.Spec) {}},
		{"obs", func(s *bench.Spec) { s.Tracer = obs.NewTracer() }},
		{"metrics", func(s *bench.Spec) { s.Metrics = metrics.New() }},
		{"explain", func(s *bench.Spec) { s.Explain = explain.NewRecorder() }},
	}
	fastest := make([]float64, len(sinks))
	for rep := 0; rep < 3; rep++ {
		for i, sink := range sinks {
			spec := row.spec
			sink.attach(&spec)
			id := sp.begin("telemetry."+sink.name, row.key(), parent)
			t0 := time.Now()
			_, err := bench.RunOnce(spec)
			d := time.Since(t0).Seconds()
			sp.end(id)
			if err != nil {
				return err
			}
			if rep == 0 || d < fastest[i] {
				fastest[i] = d
			}
		}
	}
	for i, sink := range sinks[1:] {
		m[sink.name+".on_wall_ratio"] = fastest[i+1] / fastest[0]
	}
	return nil
}

// serveTelemetry measures what the request log costs a hit: one slice
// against a second daemon that logs every request (to a discarding
// writer) ÷ the timed slices' median p50.
func serveTelemetry(w *serveWorkload, sp *spanRecorder, parent int, timed []passResult, m map[string]float64) error {
	logged := newServeWorkload(w.name, w.shape, w.seed)
	logged.logger = logx.New(io.Discard)
	if err := logged.setup(); err != nil {
		return err
	}
	id := sp.begin("telemetry.logx", w.name, parent)
	p := logged.pass(len(timed)+1, nil, -1)
	sp.end(id)
	if err := logged.close(); err != nil {
		return err
	}
	if p.failed > 0 {
		return fmt.Errorf("logged slice: %d failed: %s", p.failed, p.firstErr)
	}
	off, _, _ := w.latency(timed)
	m["logx.on_p50_ratio"] = percentile(p.lat, 50) / off
	return nil
}
