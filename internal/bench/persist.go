package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// BenchSchemaVersion versions the persisted trajectory format. Readers
// reject files written under a different schema instead of silently
// comparing incompatible rows.
const BenchSchemaVersion = 1

// BenchRow is one experiment point of a persisted trajectory: the
// result a run's rank 0 reported, flattened to stable JSON names so
// trajectories written by different builds stay comparable.
type BenchRow struct {
	Key             string  `json:"key"` // e.g. "mem=16MB/mccio/write"
	BandwidthMBps   float64 `json:"bandwidth_mbps"`
	Bytes           int64   `json:"bytes"`
	Elapsed         float64 `json:"elapsed_s"`
	Rounds          int     `json:"rounds"`
	Aggregators     int     `json:"aggregators"`
	Groups          int     `json:"groups"`
	Remerges        int     `json:"remerges"`
	BytesIO         int64   `json:"bytes_io"`
	IORequests      int64   `json:"io_requests"`
	ShuffleIntra    int64   `json:"shuffle_intra_bytes"`
	ShuffleInter    int64   `json:"shuffle_inter_bytes"`
	ExchangeSeconds float64 `json:"exchange_s"`
	IOSeconds       float64 `json:"io_s"`
	AggBufMedian    float64 `json:"agg_buf_median"`
	AggBufP95       float64 `json:"agg_buf_p95"`
	// Leaders is the elected node-leader count (two-layer exchange
	// rows); zero and omitted elsewhere, which keeps rows written
	// before the field existed byte-identical.
	Leaders int `json:"leaders,omitempty"`

	// Host-side cost columns, recorded only under Options.HostMetrics
	// (mccio-bench -host): the wall-clock nanoseconds and heap
	// allocations the host spent simulating this row. Host-dependent by
	// nature, so CompareBench ignores them; CompareHost gates them with
	// tolerance bands (tight for allocations, which are near-
	// deterministic per binary; wide for wall time, which varies with
	// hardware and load).
	HostNsOp     int64 `json:"host_ns_op,omitempty"`
	HostAllocsOp int64 `json:"host_allocs_op,omitempty"`
}

// RowFromResult flattens one run result into a trajectory row.
func RowFromResult(key string, r trace.Result) BenchRow {
	bufs := r.AggBufferStats()
	return BenchRow{
		Key:             key,
		BandwidthMBps:   r.BandwidthMBps(),
		Bytes:           r.Bytes,
		Elapsed:         r.Elapsed,
		Rounds:          r.Rounds,
		Aggregators:     r.Aggregators,
		Groups:          r.Groups,
		Remerges:        r.Remerges,
		BytesIO:         r.BytesIO,
		IORequests:      r.IORequests,
		ShuffleIntra:    r.BytesShuffleIntra,
		ShuffleInter:    r.BytesShuffleInter,
		ExchangeSeconds: r.ExchangeSeconds,
		IOSeconds:       r.IOSeconds,
		AggBufMedian:    bufs.Median,
		AggBufP95:       bufs.P95,
		Leaders:         r.Leaders,
	}
}

// BenchFile is a persisted bench trajectory: the experiment rows of one
// fixed-seed run plus the metrics-registry snapshot taken after it.
// Virtual-time simulation makes the numbers a pure function of
// (schema, scale, seed), so a checked-in file doubles as a regression
// baseline on any host.
type BenchFile struct {
	Schema      int               `json:"schema"`
	Created     string            `json:"created,omitempty"` // RFC3339, stamped by the writer
	Scale       float64           `json:"scale"`
	Seed        uint64            `json:"seed"`
	Experiments []BenchRow        `json:"experiments"`
	Metrics     *metrics.Snapshot `json:"metrics,omitempty"`
}

// Row returns the row with the given key, or nil.
func (b *BenchFile) Row(key string) *BenchRow {
	for i := range b.Experiments {
		if b.Experiments[i].Key == key {
			return &b.Experiments[i]
		}
	}
	return nil
}

// WriteBenchFile writes the trajectory as indented JSON.
func WriteBenchFile(path string, b *BenchFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBenchFile reads a trajectory and rejects unknown schemas. A
// missing file and a file written by a newer build get distinct,
// actionable errors — the two ways a CI baseline goes stale.
func ReadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: trajectory %s: %w (generate one with the regression bench)", path, err)
	}
	var b BenchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if b.Schema > BenchSchemaVersion {
		return nil, fmt.Errorf("bench: %s: written by a newer build (schema %d, this build reads %d); update this tool or regenerate the file", path, b.Schema, BenchSchemaVersion)
	}
	if b.Schema != BenchSchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema %d, this build reads %d; regenerate the file", path, b.Schema, BenchSchemaVersion)
	}
	return &b, nil
}

// CompareBench diffs two trajectories row by row (matched on Key) and
// returns a printable table (one row per matched key, its verdict in
// the last column) and the number of regressions: rows whose bandwidth
// fell by more than thresholdPct percent. Keys present in only one
// file are reported as notes, never as regressions. A nil trajectory
// or a schema mismatch between the two files is an error, not a silent
// empty comparison.
func CompareBench(old, new *BenchFile, thresholdPct float64) (*Table, int, error) {
	if old == nil {
		return nil, 0, fmt.Errorf("bench: compare: baseline trajectory is missing; generate one with the regression bench")
	}
	if new == nil {
		return nil, 0, fmt.Errorf("bench: compare: current trajectory is missing")
	}
	if old.Schema != new.Schema {
		return nil, 0, fmt.Errorf("bench: compare: schema mismatch (baseline %d, current %d); regenerate the baseline", old.Schema, new.Schema)
	}
	t := &Table{
		Title:   "Bench trajectory comparison",
		Headers: []string{"experiment", "old MB/s", "new MB/s", "delta", "verdict"},
	}
	regressed := 0
	for _, or := range old.Experiments {
		nr := new.Row(or.Key)
		if nr == nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: missing from new trajectory", or.Key))
			continue
		}
		o, n, pct := or.BandwidthMBps, nr.BandwidthMBps, 0.0
		if o > 0 {
			pct = (n/o - 1) * 100
		}
		verdict := "ok"
		if n < o*(1-thresholdPct/100) {
			verdict = "REGRESSED"
			regressed++
		}
		t.addf("%s %.1f %.1f %+.1f%% %s", or.Key, o, n, pct, verdict)
	}
	for _, nr := range new.Experiments {
		if old.Row(nr.Key) == nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: new experiment, no baseline", nr.Key))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("threshold: fail when bandwidth drops more than %.1f%%", thresholdPct))
	return t, regressed, nil
}

// CompareHost diffs the host-side columns (host_ns_op, host_allocs_op)
// of two trajectories and counts regressions: rows whose wall time grew
// more than nsTolPct percent or whose allocation count grew more than
// allocTolPct percent. The gates are one-sided — getting faster or
// leaner never fails — and banded rather than exact because host
// numbers are not a pure function of (scale, seed): allocation counts
// shift slightly across Go releases and wall time with hardware, so
// sensible bands are tight for allocations (tens of percent) and wide
// for nanoseconds (hundreds). Rows without host data on either side
// are skipped with a note; comparing two trajectories where no row
// pair has host data is an error (the caller almost certainly forgot
// to record with -host).
func CompareHost(old, new *BenchFile, nsTolPct, allocTolPct float64) (*Table, int, error) {
	if old == nil || new == nil {
		return nil, 0, fmt.Errorf("bench: compare host: missing trajectory")
	}
	t := &Table{
		Title:   "Host-cost comparison (wall time and allocations per row)",
		Headers: []string{"experiment", "old ms", "new ms", "wall", "old allocs", "new allocs", "alloc", "verdict"},
	}
	regressed, compared := 0, 0
	pctStr := func(oldV, newV int64) string {
		if oldV <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", (float64(newV)/float64(oldV)-1)*100)
	}
	for _, or := range old.Experiments {
		nr := new.Row(or.Key)
		if nr == nil {
			continue // CompareBench already notes missing keys
		}
		if or.HostNsOp == 0 || nr.HostNsOp == 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: no host data on one side, skipped", or.Key))
			continue
		}
		compared++
		nsUp := float64(nr.HostNsOp) > float64(or.HostNsOp)*(1+nsTolPct/100)
		allocsUp := or.HostAllocsOp > 0 && float64(nr.HostAllocsOp) > float64(or.HostAllocsOp)*(1+allocTolPct/100)
		verdict := "ok"
		if nsUp || allocsUp {
			verdict = "REGRESSED"
			regressed++
		}
		t.addf("%s %.1f %.1f %s %d %d %s %s", or.Key, float64(or.HostNsOp)/1e6, float64(nr.HostNsOp)/1e6,
			pctStr(or.HostNsOp, nr.HostNsOp), or.HostAllocsOp, nr.HostAllocsOp, pctStr(or.HostAllocsOp, nr.HostAllocsOp), verdict)
	}
	if compared == 0 {
		return nil, 0, fmt.Errorf("bench: compare host: no row pair carries host columns; record both trajectories with host metrics enabled (mccio-bench -host)")
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"bands: fail when wall time grows more than %.0f%% or allocations more than %.0f%%", nsTolPct, allocTolPct))
	return t, regressed, nil
}
