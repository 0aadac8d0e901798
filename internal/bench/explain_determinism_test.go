package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explain"
)

// runRegressionExplain runs the fixed-seed regression bench with the
// decision audit attached and returns the serialized JSONL log and the
// rendered explain report.
func runRegressionExplain(t *testing.T, parallel int) (jsonl, rendered []byte) {
	t.Helper()
	rec := explain.NewRecorder()
	if _, err := runTrajectory("regression", Options{Scale: 0.05, Seed: 9, Parallel: parallel, Explain: rec}, nil); err != nil {
		t.Fatalf("parallel=%d: %v", parallel, err)
	}
	var log, rep bytes.Buffer
	if err := rec.WriteJSONL(&log); err != nil {
		t.Fatal(err)
	}
	explain.RenderExplain(&rep, rec.Events())
	return log.Bytes(), rep.Bytes()
}

// TestExplainDeterminism is the acceptance gate for the decision audit:
// for the fixed regression seed, the JSONL log and the rendered explain
// report are byte-identical whether the rows run serially or across 8
// workers, and the log actually contains annotated remerges — every
// remerge carries its reason and the candidate hosts' Mem_avl.
func TestExplainDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	serialLog, serialRep := runRegressionExplain(t, 1)
	parallelLog, parallelRep := runRegressionExplain(t, 8)
	if !bytes.Equal(serialLog, parallelLog) {
		t.Fatal("decision log differs between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(serialRep, parallelRep) {
		t.Fatal("rendered explain report differs between -parallel 1 and -parallel 8")
	}

	events, err := explain.ParseJSONL(bytes.NewReader(serialLog))
	if err != nil {
		t.Fatal(err)
	}
	sum := explain.Summarize(events)
	if sum.Runs != 8 {
		t.Fatalf("log has %d run markers, want 8 regression rows", sum.Runs)
	}
	if sum.Plans == 0 || sum.Bisections == 0 || sum.Placements == 0 || sum.MemSamples == 0 {
		t.Fatalf("log missing planner decisions: %+v", sum)
	}
	rep := string(serialRep)
	for _, want := range []string{"run mem=4MB/mccio/write", "partition tree:", "why ("} {
		if !strings.Contains(rep, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, rep[:min(len(rep), 2000)])
		}
	}
}

// TestExplainRemergeAudit starves a 2-node testbed until the planner
// must remerge, then checks every remerge event carries its full
// audit — reason text, the failed threshold, the candidate hosts with
// their Mem_avl — and that the rendered tree annotates it inline.
func TestExplainRemergeAudit(t *testing.T) {
	const mem = 2 * 1 << 20 // 2 MiB: scarce enough that placements fail
	wl := iorWorkload(24, 1.0)
	fcfg := TestbedFS(42)
	mcfg := TestbedMachine(2, mem, SigmaBytes, 42)
	mccOpts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)
	rec := explain.NewRecorder()
	res, err := RunOnce(Spec{Strategy: core.MCCIO{Opts: mccOpts}, Op: "write",
		Machine: mcfg, FS: fcfg, Workload: wl, Explain: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Remerges == 0 {
		t.Fatal("scarce-memory run performed no remerges; test platform needs retuning")
	}
	events := rec.Events()
	remerges := 0
	for _, e := range events {
		if e.Kind != explain.KindRemerge {
			continue
		}
		remerges++
		if e.Reason == "" || e.Threshold <= 0 {
			t.Fatalf("remerge without reason/threshold: %+v", e)
		}
		if len(e.Candidates) == 0 {
			t.Fatalf("remerge without candidate audit: %+v", e)
		}
		if e.Variant != explain.VariantSibling && e.Variant != explain.VariantDFS {
			t.Fatalf("remerge with unknown variant %q", e.Variant)
		}
		if e.TakerHi <= e.TakerLo {
			t.Fatalf("remerge with empty taker extent: %+v", e)
		}
	}
	if remerges != res.Remerges {
		t.Fatalf("audit recorded %d remerges, engine reported %d", remerges, res.Remerges)
	}
	var buf bytes.Buffer
	explain.RenderExplain(&buf, events)
	if !strings.Contains(buf.String(), "<- remerged (") {
		t.Fatalf("rendered tree has no inline remerge annotation:\n%s", buf.String())
	}
}

// TestPhaseBreakdownAnomalyNotes smoke-checks the anomaly wiring: the
// phase table renders with its notes and never flags the healthy
// regression-sized run as anomalous in a nondeterministic way (two
// invocations agree).
func TestPhaseBreakdownAnomalyNotes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	run := func() []byte {
		tab, _, err := runMode("phases", Options{Scale: 0.05, Seed: 9, Parallel: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tab.WriteText(&buf)
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("phase table with anomaly notes is nondeterministic:\n%s\n---\n%s", a, b)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
