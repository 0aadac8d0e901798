package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
)

// marshalBench flattens a trajectory to canonical JSON for byte
// comparison. Created is never set by the runners, so the encoding is
// a pure function of the rows and the merged metrics snapshot.
func marshalBench(t *testing.T, b *BenchFile) []byte {
	t.Helper()
	b.Created = ""
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSweepDeterminismRegression is the tentpole proof: the regression
// trajectory — experiment rows AND merged metrics snapshot — is
// byte-identical whether the rows run serially or across 8 workers.
func TestSweepDeterminismRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	run := func(parallel int) []byte {
		reg := metrics.New()
		b, err := runTrajectory("regression", Options{Scale: 0.05, Seed: 9, Parallel: parallel}, reg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return marshalBench(t, b)
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("regression trajectory differs between -parallel 1 and -parallel 8:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestSweepDeterminismGrid proves the same for the 48-row sharded grid,
// whose per-row seeds come from sweep.Seed(seed, row) — the path where
// a worker stealing another row's random draws would show up first.
func TestSweepDeterminismGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("48-run experiment")
	}
	run := func(parallel int) *BenchFile {
		reg := metrics.New()
		b, err := runTrajectory("sweep", Options{Scale: 0.02, Seed: 9, Parallel: parallel}, reg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return b
	}
	serialFile, parallelFile := run(1), run(8)
	if n := len(serialFile.Experiments); n != len(SweepMems)*2*2*SweepVariants {
		t.Fatalf("grid has %d rows, want %d", n, len(SweepMems)*2*2*SweepVariants)
	}
	serial, parallel := marshalBench(t, serialFile), marshalBench(t, parallelFile)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("grid trajectory differs between -parallel 1 and -parallel 8:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestSweepDeterminismVariantsDiffer guards the seed derivation: two
// variants of the same grid cell must see different platforms (else
// SweepVariants is sampling one draw three times).
func TestSweepDeterminismVariantsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("48-run experiment")
	}
	b, err := runTrajectory("sweep", Options{Scale: 0.02, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v0 := b.Row("mem=2MB/mccio/write/v0")
	v1 := b.Row("mem=2MB/mccio/write/v1")
	if v0 == nil || v1 == nil {
		t.Fatal("expected variant rows missing")
	}
	if v0.BandwidthMBps == v1.BandwidthMBps && v0.Elapsed == v1.Elapsed {
		t.Fatalf("variants v0 and v1 identical: %+v", *v0)
	}
}
