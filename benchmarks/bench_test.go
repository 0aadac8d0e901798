package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	g := lockstepGrid(true)
	a, b := simRows(g, 7), simRows(g, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("simRows differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, simRows(g, 8)) {
		t.Fatal("simRows ignores the seed")
	}
	if len(a) != len(g.mems)*len(rowStrategies)*len(rowOps) {
		t.Fatalf("simRows made %d rows", len(a))
	}

	sh := hotShape(true)
	k1, err := serveKeys(sh, 7)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := serveKeys(sh, 7)
	k3, _ := serveKeys(sh, 8)
	same := true
	for k := range k1 {
		if !bytes.Equal(k1[k].body, k2[k].body) {
			t.Fatalf("key %d: body differs between two calls with one seed", k)
		}
		same = same && bytes.Equal(k1[k].body, k3[k].body)
	}
	if same {
		t.Fatal("serveKeys ignores the seed")
	}
	seen := make(map[string]bool)
	for _, k := range k1 {
		seen[string(k.body)] = true
	}
	if len(seen) != sh.keys {
		t.Fatalf("%d distinct bodies for %d keys", len(seen), sh.keys)
	}

	for _, sh := range []serveShape{hotShape(true), coldShape(true)} {
		s1, s2 := serveSchedule(sh, 7, 3), serveSchedule(sh, 7, 3)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatal("serveSchedule differs between two calls with one seed")
		}
		if len(s1) != sh.sliceReqs {
			t.Fatalf("schedule has %d requests, want %d", len(s1), sh.sliceReqs)
		}
		for _, k := range s1 {
			if k < 0 || k >= sh.keys {
				t.Fatalf("schedule names key %d of %d", k, sh.keys)
			}
		}
		if sh.zipf && reflect.DeepEqual(s1, serveSchedule(sh, 8, 3)) {
			t.Fatal("Zipf schedule ignores the seed")
		}
		if sh.zipf && reflect.DeepEqual(s1, serveSchedule(sh, 7, 4)) {
			t.Fatal("Zipf schedule repeats from slice to slice")
		}
	}
	// The cyclic visit continues across slices and never revisits a key
	// within the cache's reach.
	cold := coldShape(true)
	s0, s1 := serveSchedule(cold, 7, 0), serveSchedule(cold, 7, 1)
	if s1[0] != (s0[len(s0)-1]+1)%cold.keys {
		t.Fatalf("cyclic visit breaks between slices: %d then %d", s0[len(s0)-1], s1[0])
	}
}

func TestPercentileAndMedians(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}

	passes := []passResult{{wallS: 3}, {wallS: 1}, {wallS: 2}}
	med, per := medianOfSlices(passes, func(p passResult) float64 { return p.wallS })
	if med != 2 || !reflect.DeepEqual(per, []float64{3, 1, 2}) {
		t.Errorf("medianOfSlices = %v %v", med, per)
	}

	// Two row types over three passes: each row's latency is its median
	// over the passes, whatever one disturbed pass read.
	rows := rowTypeMedians([][]float64{{10, 200}, {11, 900}, {12, 210}})
	if !reflect.DeepEqual(rows, []float64{11, 210}) {
		t.Errorf("rowTypeMedians = %v", rows)
	}
	if rowTypeMedians(nil) != nil {
		t.Error("rowTypeMedians of no passes is not nil")
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestLayerOfLeafFrame(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/simtime.(*Proc).park":                 "simtime",
		"repro/internal/simtime.(*Chan[go.shape.*uint8]).Get": "simtime",
		"repro/internal/mpi.(*Comm).Allgather":                "mpi",
		"repro/internal/collio.executeWriteCombined":          "collio",
		"repro/internal/resource.reserveSeq":                  "resource",
		"repro/internal/pfs.(*FS).splitByOST":                 "pfs",
		"repro/internal/datatype.Normalize.func1":             "datatype",
		"repro/internal/core.MCCIO.Inspect":                   "core",
		"repro/internal/twolayer.Elect":                       "twolayer",
		"repro/internal/iolib.(*ViewIndex).PackArena":         "iolib",
		"repro/internal/cluster.(*Node).Alloc":                "cluster",
		"repro/internal/workload.IOR.View":                    "workload",
		"repro/internal/pland.(*Server).handlePlan.func1":     "pland",
		"repro/internal/buffer.Copy":                          "other",
		"repro/internal/bench.RunOnce.func1":                  "other",
		"repro/internal/metrics.(*Counter).Add":               "other",
		"encoding/json.(*decodeState).object":                 "json",
		"crypto/sha256.block":                                 "sha256",
		"crypto/internal/fips140/sha256.blockSHANI":           "sha256",
		"net/http.(*conn).serve":                              "nethttp",
		"net.(*netFD).Read":                                   "nethttp",
		"net/textproto.(*Reader).ReadLine":                    "nethttp",
		"syscall.Syscall":                                     "nethttp",
		"internal/runtime/syscall.Syscall6":                   "nethttp",
		"internal/poll.(*FD).Write":                           "nethttp",
		"runtime.futex":                                       "runtime",
		"runtime.mallocgc":                                    "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":          "runtime",
		"internal/runtime/atomic.(*Int64).Add":                "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmallFastStr": "runtime",
		"sync.(*Mutex).Lock":                                  "runtime",
		"main.(*serveWorkload).request":                       "client",
		"repro/benchmarks.(*simWorkload).pass":                "client",
		"sort.Slice":                                          "other",
		"bytes.(*Buffer).ReadFrom":                            "other",
		"memeqbody":                                           "runtime",
		"reflect.Value.Addr":                                  "json",
		"strconv.ParseUint":                                   "json",
		"unicode/utf8.DecodeRune":                             "json",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	// A parent of 10 s with two children that overlap each other (as two
	// clients' requests do) and one that sticks out past the parent: the
	// covered part is [1,5] ∪ [8,10].
	spans := []span{
		{ID: 0, Parent: -1, Name: "slice", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "req", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "req", Start: 3, End: 5},
		{ID: 3, Parent: 0, Name: "req", Start: 8, End: 12},
		{ID: 4, Parent: 1, Name: "stage", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	want := []float64{4, 2, 2, 4, 1}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", i, self[i], want[i])
		}
	}
	sum := summarizeSpans(spans)
	if len(sum) != 3 || sum[1].Name != "req" || sum[1].Count != 3 || math.Abs(sum[1].TotalS-9) > 1e-12 || math.Abs(sum[1].SelfS-8) > 1e-12 {
		t.Errorf("summarizeSpans = %+v", sum)
	}

	var none *spanRecorder
	if id := none.begin("x", "", -1); id != -1 {
		t.Errorf("nil recorder opened span %d", id)
	}
	none.end(-1)
	r := newSpanRecorder()
	root := r.begin("root", "", -1)
	kid := r.begin("kid", "k", root)
	r.end(kid)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[0].End < r.spans[1].End {
		t.Errorf("recorded spans %+v", r.spans)
	}
}

func TestTraceFlagTakesAValue(t *testing.T) {
	got := normalizeTraceArg([]string{"--workload", "serve-hot", "--trace", "1", "--seed", "3", "-trace", "0", "-trace"})
	want := []string{"--workload", "serve-hot", "-trace=1", "--seed", "3", "-trace=0", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normalizeTraceArg = %v, want %v", got, want)
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worsening(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 worsens by %v", got)
	}
	if got := worsening(higher, 100, 110); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→110 worsens by %v", got)
	}
}

// benchmarkJSON is the benchmark's manifest at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestSmokeNamesMatchBenchmarkJSON runs all four workloads at smoke
// scale with the traced pass and holds what they print to what
// BENCHMARK.json promises: the same workloads, and the same metric
// names, units, directions and bounds.
func TestSmokeNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, man []manifestMetric, defs []metricDef, bounded bool) {
		t.Helper()
		if len(man) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark defines %d", kind, len(man), len(defs))
		}
		for i, d := range defs {
			m := man[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the benchmark defines %+v", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json differs from %v", kind, d.Name, d.Bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s metric %s has a bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEndDefs, true)
	check("per_layer", man.PerLayer, perLayerDefs, false)

	for _, name := range workloadNames {
		rep, err := runWorkload(options{workload: name, seed: 5, smoke: true, trace: true, outDir: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", name, rep.Failed, rep.Attempted, rep.FirstError)
		}
		for traced, defs := range map[bool][]metricDef{false: endToEndDefs, true: perLayerDefs} {
			line := resultLine(rep, traced)
			var got, want []string
			for n := range line.Metrics {
				got = append(got, n)
			}
			for _, d := range defs {
				want = append(want, d.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (traced %v): printed metrics %v, BENCHMARK.json names %v", name, traced, got, want)
			}
		}
		for _, v := range rep.EndToEnd {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, v.Name, v.Value)
			}
		}
		var out bytes.Buffer
		printReport(&out, rep)
		for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
			if !bytes.Contains(out.Bytes(), []byte("\n"+d.Name+" ")) {
				t.Errorf("%s: text report does not print %s", name, d.Name)
			}
		}
	}
}
