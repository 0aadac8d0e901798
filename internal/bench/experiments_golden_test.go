//go:build !race

// The fence runs fig8 and exascale (1,080 simulated ranks); under the
// race detector fig8 alone peaks near 5 GB and takes minutes, for bytes
// the detector cannot change, so the race build leaves the test out.
// The runner's concurrency is raced by TestSweepDeterminism* and
// TestGolden*.

package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments_stdout.txt from the current code")

// TestExperimentsGolden fences every -experiment mode's stdout: the
// tables `mccio-bench -experiment <name> -scale 0.05 -seed 42` prints,
// in ExperimentNames order, concatenated. Any change to a grid, a
// runner or a table that moves one byte of a figure shows up here.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("all 13 experiments, about 11 s on 2 CPUs")
	}
	var buf bytes.Buffer
	for _, name := range ExperimentNames() {
		sel, err := SelectExperiments(name)
		if err != nil {
			t.Fatal(err)
		}
		tab, _, err := sel[0].Run(Options{Scale: 0.05, Seed: 42}, metrics.New())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab.WriteText(&buf)
	}
	path := filepath.Join("testdata", "experiments_stdout.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("experiment stdout diverged from %s; rerun with -update and diff the file", path)
	}
}
