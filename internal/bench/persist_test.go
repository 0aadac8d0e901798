package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func syntheticFile() *BenchFile {
	return &BenchFile{
		Schema: BenchSchemaVersion, Scale: 1, Seed: 42,
		Experiments: []BenchRow{
			{Key: "mem=4MB/two-phase/write", BandwidthMBps: 100, Bytes: 1 << 20},
			{Key: "mem=4MB/mccio/write", BandwidthMBps: 200, Bytes: 1 << 20},
			{Key: "mem=16MB/mccio/read", BandwidthMBps: 300, Bytes: 1 << 20},
		},
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := syntheticFile()
	if err := WriteBenchFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestReadBenchFileRejectsSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	bad := syntheticFile()
	bad.Schema = BenchSchemaVersion + 1
	if err := WriteBenchFile(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchFile(path); err == nil {
		t.Error("expected schema-mismatch error, got nil")
	}
}

// TestCompareBenchDetectsRegression injects a synthetic bandwidth drop
// and checks that only it is flagged at a 10% threshold.
func TestCompareBenchDetectsRegression(t *testing.T) {
	old := syntheticFile()
	cur := syntheticFile()
	cur.Experiments[1].BandwidthMBps = 150 // -25%: regression
	cur.Experiments[2].BandwidthMBps = 285 // -5%: within threshold
	tbl, regressed, err := CompareBench(old, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1 (rows %v)", regressed, tbl.Rows)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("table rows = %d, want 3", len(tbl.Rows))
	}
	for i, want := range []string{"ok", "REGRESSED", "ok"} {
		if got := tbl.Rows[i][len(tbl.Rows[i])-1]; got != want {
			t.Errorf("row %s: verdict %s, want %s", tbl.Rows[i][0], got, want)
		}
	}

	// The same pair passes at a looser threshold.
	if _, n, _ := CompareBench(old, cur, 30); n != 0 {
		t.Errorf("regressed at 30%% threshold = %d, want 0", n)
	}
}

func TestCompareBenchMissingKeys(t *testing.T) {
	old := syntheticFile()
	cur := syntheticFile()
	cur.Experiments = cur.Experiments[:2]
	cur.Experiments = append(cur.Experiments, BenchRow{Key: "brand-new", BandwidthMBps: 1})
	tbl, regressed, err := CompareBench(old, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 0 {
		t.Errorf("missing keys must not count as regressions, got %d", regressed)
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("compared rows = %d, want 2 (dropped key is a note, not a row)", len(tbl.Rows))
	}
}

// TestRunRegressionDeterministic runs the CI bench twice at a small
// scale and requires bit-identical trajectories — the property that
// lets a checked-in baseline gate CI on any host.
func TestRunRegressionDeterministic(t *testing.T) {
	opts := Options{Scale: 0.05, Seed: 42}
	reg := metrics.New()
	a, err := runTrajectory("regression", opts, reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTrajectory("regression", Options{Scale: 0.05, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Experiments) != 8 {
		t.Fatalf("experiments = %d, want 8", len(a.Experiments))
	}
	for i := range a.Experiments {
		if a.Experiments[i].BandwidthMBps <= 0 {
			t.Errorf("%s: bandwidth %v, want > 0", a.Experiments[i].Key, a.Experiments[i].BandwidthMBps)
		}
		if !reflect.DeepEqual(a.Experiments[i], b.Experiments[i]) {
			t.Errorf("run-to-run mismatch at %s:\n%+v\n%+v",
				a.Experiments[i].Key, a.Experiments[i], b.Experiments[i])
		}
	}
	if a.Metrics == nil || len(a.Metrics.Families) == 0 {
		t.Fatal("metrics snapshot missing from trajectory")
	}
	if v, ok := a.Metrics.Get("mccio_engine_rounds_total", map[string]string{"op": "write"}); !ok || v <= 0 {
		t.Errorf("mccio_engine_rounds_total{op=write} = %v, %v; want > 0", v, ok)
	}
	if v, ok := a.Metrics.Get("pfs_requests_total", map[string]string{"op": "write"}); !ok || v <= 0 {
		t.Errorf("pfs_requests_total{op=write} = %v, %v; want > 0", v, ok)
	}
}

// TestCompareBenchErrors pins the error contract: nil trajectories and
// schema mismatches fail loudly instead of comparing nothing.
func TestCompareBenchErrors(t *testing.T) {
	ok := syntheticFile()
	if _, _, err := CompareBench(nil, ok, 10); err == nil {
		t.Error("nil baseline: want error, got nil")
	}
	if _, _, err := CompareBench(ok, nil, 10); err == nil {
		t.Error("nil current: want error, got nil")
	}
	newer := syntheticFile()
	newer.Schema = BenchSchemaVersion + 1
	if _, _, err := CompareBench(ok, newer, 10); err == nil {
		t.Error("schema mismatch: want error, got nil")
	}
}

// TestReadBenchFileErrors distinguishes the two stale-baseline modes:
// the file is absent, or it was written by a newer build.
func TestReadBenchFileErrors(t *testing.T) {
	if _, err := ReadBenchFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file: want error, got nil")
	} else if !strings.Contains(err.Error(), "regression bench") {
		t.Errorf("missing file error not actionable: %v", err)
	}
	path := filepath.Join(t.TempDir(), "newer.json")
	newer := syntheticFile()
	newer.Schema = BenchSchemaVersion + 3
	if err := WriteBenchFile(path, newer); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchFile(path); err == nil {
		t.Error("newer schema: want error, got nil")
	} else if !strings.Contains(err.Error(), "newer build") {
		t.Errorf("newer-schema error should name the cause: %v", err)
	}
}
