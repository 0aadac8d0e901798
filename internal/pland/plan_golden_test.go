package pland

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/pfs"
	"repro/internal/strategy"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plan_bodies.json from the current planner")

// planConfig is one plan-servable configuration: a strategy name plus
// whether mccio composes the two-layer exchange.
type planConfig struct {
	name     string
	strategy string
	twoLayer bool
}

// planConfigs are the four configurations /v1/plan serves.
var planConfigs = []planConfig{
	{"mccio", strategy.MCCIO, false},
	{"mccio+two-layer", strategy.MCCIO, true},
	{"two-phase", strategy.TwoPhase, false},
	{"two-layer", strategy.TwoLayer, false},
}

// testbed builds the evaluation platform the bench experiments plan on:
// nodes × cores, a nominal per-node aggregation budget with the paper's
// σ = 50 MB variance clipped at a quarter of nominal, storage with
// shared-interference jitter.
func testbed(nodes, cores int, mem int64, seed uint64) (cluster.Config, pfs.Config) {
	mc := bench.TestbedMachine(nodes, mem, bench.SigmaBytes, seed)
	mc.CoresPerNode = cores
	return mc, bench.TestbedFS(seed)
}

// requestFor spells wl on (mc, fc) as a plan request under cfg, with
// the tunables the bench sweeps derive for the platform: groups of a
// couple of nodes, Memmin a quarter of the nominal budget.
func requestFor(mc cluster.Config, fc pfs.Config, wl workload.Workload, cfg planConfig) PlanRequest {
	opts := bench.MCCIOOptions(mc, fc, wl.TotalBytes(), mc.MemPerNode)
	opts.TwoLayer = cfg.twoLayer
	ranks := make([][]Extent, wl.NumRanks())
	for r := range ranks {
		for _, s := range wl.View(r) {
			ranks[r] = append(ranks[r], Extent{Off: s.Off, Len: s.Len})
		}
	}
	return PlanRequest{Cluster: mc, FS: fc, Options: &opts, Strategy: cfg.strategy, Ranks: ranks}
}

// planLayout is one request layout: a workload on a platform.
type planLayout struct {
	name string
	mc   cluster.Config
	fc   pfs.Config
	wl   workload.Workload
}

// goldenLayouts are the request layouts of the plan-body golden: IOR
// interleaved on the 2 × 12 testbed, a 2-ranks-per-node machine (every
// node elects between exactly two mates), and the IOR layout on a
// memory-starved testbed whose mccio placement must remerge.
func goldenLayouts() []planLayout {
	ior := func(ranks int, block int64, segments int) workload.IOR {
		return workload.IOR{Ranks: ranks, BlockSize: block, Segments: segments, TransferSize: block}
	}
	layout := func(name string, nodes, cores int, mem int64, wl workload.Workload) planLayout {
		mc, fc := testbed(nodes, cores, mem, 42)
		return planLayout{name, mc, fc, wl}
	}
	return []planLayout{
		layout("ior", 2, 12, 16*cluster.MiB, ior(24, 256<<10, 8)),
		layout("pairs", 4, 2, 16*cluster.MiB, ior(8, 1<<20, 2)),
		layout("starved", 2, 12, 2*cluster.MiB, ior(24, 4<<20, 8)),
	}
}

// goldenBody is one entry of testdata/plan_bodies.json: the request's
// label and the exact response body /v1/plan answered with.
type goldenBody struct {
	Name string `json:"name"`
	Body string `json:"body"`
}

// TestPlanBodiesGolden pins the exact /v1/plan response bytes for the
// four plan-servable configurations on three layouts. The file was
// generated before the planner paths were unified and has changed once
// since, by the removal of the "NodeCombine" key from each options
// object when core.Options lost that field; a diff means a refactor
// changed what the service answers, not just how.
func TestPlanBodiesGolden(t *testing.T) {
	srv := startServer(t, Config{})
	url := "http://" + srv.Addr() + "/v1/plan"
	var got []goldenBody
	for _, l := range goldenLayouts() {
		for _, cfg := range planConfigs {
			req, err := json.Marshal(requestFor(l.mc, l.fc, l.wl, cfg))
			if err != nil {
				t.Fatal(err)
			}
			resp, body := post(t, url, req)
			if resp.StatusCode != 200 {
				t.Fatalf("%s/%s: %d %s", l.name, cfg.name, resp.StatusCode, body)
			}
			var pr PlanResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatal(err)
			}
			// The golden's fingerprints are the parent's: the cache key of
			// every request survives any change that keeps this file.
			if fp := resp.Header.Get("X-Fingerprint"); fp == "" || fp != pr.Fingerprint {
				t.Fatalf("%s/%s: X-Fingerprint %q, body fingerprint %q", l.name, cfg.name, fp, pr.Fingerprint)
			}
			if l.name == "starved" && cfg.strategy == strategy.MCCIO && pr.Remerges == 0 {
				t.Fatalf("%s/%s: no remerges; the starved layout needs retuning", l.name, cfg.name)
			}
			if (cfg.twoLayer || cfg.strategy == strategy.TwoLayer) && len(pr.Leaders) == 0 {
				t.Fatalf("%s/%s: two-layer plan elected no leaders", l.name, cfg.name)
			}
			got = append(got, goldenBody{Name: l.name + "/" + cfg.name, Body: string(body)})
		}
	}
	have, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	have = append(have, '\n')
	path := filepath.Join("testdata", "plan_bodies.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, have, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Fatalf("/v1/plan bodies diverged from %s (rerun with -update only for an intended change):\n%s", path, have)
	}
}
