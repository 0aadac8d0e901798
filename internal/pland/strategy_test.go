package pland

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/strategy"
)

// TestFingerprintStrategySeparation is the cache-isolation property:
// requests differing only in the strategy field must never share a
// fingerprint (and therefore never share a cache slot), across every
// strategy and across many layouts.
func TestFingerprintStrategySeparation(t *testing.T) {
	for i := 0; i < 50; i++ {
		off := int64(i) * 4096
		ln := int64(64<<10 + i*512)
		base := testRequest([][]Extent{{{off, ln}}, {{off + 1<<24, ln}}})
		seen := make(map[string]string, len(strategy.Names()))
		for _, s := range strategy.Names() {
			r := base
			r.Strategy = s
			key := fp(t, r)
			if prev, dup := seen[key]; dup {
				t.Fatalf("layout %d: strategies %q and %q share fingerprint %s", i, prev, s, key)
			}
			seen[key] = s
		}
	}
}

// TestFingerprintStrategyDefaultSpelling checks the other half of the
// contract: an empty strategy and an explicit "mccio" are the same
// request and must share a slot.
func TestFingerprintStrategyDefaultSpelling(t *testing.T) {
	base := testRequest([][]Extent{{{0, 1 << 20}}})
	explicit := base
	explicit.Strategy = strategy.MCCIO
	if fp(t, base) != fp(t, explicit) {
		t.Fatal("spelling out the default strategy changed the fingerprint")
	}
}

// TestFingerprintTwoLayerOption checks that composing the two-layer
// exchange into mccio via Options.TwoLayer keys its own cache slot.
func TestFingerprintTwoLayerOption(t *testing.T) {
	base := testRequest([][]Extent{{{0, 1 << 20}}})
	if err := base.Cluster.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(base.Cluster, base.FS)
	plain, composed := base, base
	plain.Options = &opts
	tl := opts
	tl.TwoLayer = true
	composed.Options = &tl
	if fp(t, plain) == fp(t, composed) {
		t.Fatal("Options.TwoLayer did not change the fingerprint")
	}
}

// TestCanonicalizeRejectsUnknownStrategy checks validation happens
// before any planning work, with the allowed list in the message.
func TestCanonicalizeRejectsUnknownStrategy(t *testing.T) {
	r := testRequest([][]Extent{{{0, 4096}}})
	r.Strategy = "three-phase"
	if _, err := r.canonicalize(); err == nil {
		t.Fatal("unknown strategy canonicalized")
	} else if !strings.Contains(err.Error(), strategy.List()) {
		t.Fatalf("error %q does not list the allowed strategies", err)
	}
}

// multiRankRequest builds a plan request whose cluster hosts several
// ranks per node, so the two-layer election has mates to choose from:
// 2 nodes x 2 ranks.
func multiRankRequest() PlanRequest {
	mc := cluster.TestbedConfig(2)
	mc.MemPerNode = 16 * cluster.MiB
	mc.CoresPerNode = 2
	ranks := make([][]Extent, 4)
	for r := range ranks {
		ranks[r] = []Extent{{int64(r) << 20, 1 << 20}}
	}
	return PlanRequest{Cluster: mc, FS: pfs.DefaultConfig(), Ranks: ranks}
}

// assertNoPlannerPanics checks that no request so far reached the
// planner's or the simulator's recover(): a 422 must come from a
// returned error, never from a swallowed panic.
func assertNoPlannerPanics(t *testing.T, srv *Server) {
	t.Helper()
	if n := srv.panics.Value(); n != 0 {
		t.Fatalf("mccio_pland_planner_panics_total = %v, want 0", n)
	}
}

// TestPlannerPanicIsCounted reaches buildPlanJSON's recover() with a
// request canonicalization would have refused (a negative-length extent
// on rank 0): it answers with an error instead of taking the process
// down, and the panic is counted.
func TestPlannerPanicIsCounted(t *testing.T) {
	panics := metrics.New().Counter("panics", "")
	views := []datatype.List{{{Off: 0, Len: -5}}, {{Off: 10, Len: 5}}}
	c := &canonRequest{Cluster: multiRankRequest().Cluster, FS: pfs.DefaultConfig(), Strategy: strategy.TwoPhase, Views: views}
	if err := c.Cluster.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildPlanJSON(c, "fp", panics); err == nil || !strings.Contains(err.Error(), "planner failed") {
		t.Fatalf("plan over a negative extent: err = %v, want a recovered planner failure", err)
	}
	if got := panics.Value(); got != 1 {
		t.Fatalf("one recovered panic counted %v times", got)
	}
}

// TestSimulatorPanicIsCounted reaches runSimulation's recover() the way
// TestPlannerPanicIsCounted reaches the planner's, with the panic raised
// inside one simulated rank: a view canonicalization would have refused
// (a negative-length extent on rank 2) makes that rank's body panic
// while ranks 0 and 1 are already parked in the collective's entry
// barrier. Rank bodies are coroutines resumed from Engine.Run, so the
// panic arrives on the worker's own goroutine: the request gets an
// error, the panic is counted, and the stranded ranks are unwound — a
// panicking rank used to end the daemon from a goroutine no recover()
// could guard.
func TestSimulatorPanicIsCounted(t *testing.T) {
	req := multiRankRequest()
	c, err := req.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	c.Views[2] = datatype.List{{Off: 2 << 20, Len: -1}}
	panics := metrics.New().Counter("panics", "")
	before := runtime.NumGoroutine()
	_, err = runSimulation(c, "fp", "write", panics)
	if err == nil || !strings.Contains(err.Error(), "simulation failed") || !strings.Contains(err.Error(), "negative size") {
		t.Fatalf("simulating a rank that panics: err = %v, want the recovered rank panic", err)
	}
	if got := panics.Value(); got != 1 {
		t.Fatalf("one recovered panic counted %v times", got)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the run, %d after its panic", before, after)
	}
}

// TestPlanStrategies drives /v1/plan across the plannable strategies
// and checks the strategy-specific response shape: mccio plans carry
// groups, two-layer plans carry one elected leader per occupied node,
// and the unplannable "independent" is refused with the allowed list.
func TestPlanStrategies(t *testing.T) {
	srv := startServer(t, Config{})
	url := "http://" + srv.Addr() + "/v1/plan"

	planFor := func(s string) PlanResponse {
		t.Helper()
		req := multiRankRequest()
		req.Strategy = s
		body, _ := json.Marshal(req)
		resp, data := post(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s plan: %d %s", s, resp.StatusCode, data)
		}
		var pr PlanResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Strategy != s {
			t.Fatalf("echoed strategy %q, want %q", pr.Strategy, s)
		}
		return pr
	}

	two := planFor(strategy.TwoLayer)
	if len(two.Leaders) != 2 {
		t.Fatalf("two-layer leaders = %d, want one per occupied node (2): %+v", len(two.Leaders), two.Leaders)
	}
	nodes := map[int]bool{}
	for _, l := range two.Leaders {
		if nodes[l.Node] {
			t.Fatalf("node %d elected two leaders", l.Node)
		}
		nodes[l.Node] = true
		if l.RunnersUp != 1 {
			t.Fatalf("leader %+v: runners_up = %d, want 1 on a 2-rank node", l, l.RunnersUp)
		}
	}
	if len(two.Groups) != 1 || two.Ranks != 4 {
		t.Fatalf("implausible two-layer plan: %+v", two)
	}

	flat := planFor(strategy.TwoPhase)
	if len(flat.Leaders) != 0 {
		t.Fatalf("two-phase plan reports leaders: %+v", flat.Leaders)
	}

	mcc := planFor(strategy.MCCIO)
	if len(mcc.Groups) == 0 || mcc.Aggregators == 0 {
		t.Fatalf("implausible mccio plan: %+v", mcc)
	}

	fps := map[string]string{two.Fingerprint: "two-layer", flat.Fingerprint: "two-phase"}
	if prev, dup := fps[mcc.Fingerprint]; dup {
		t.Fatalf("mccio shares a fingerprint with %s", prev)
	}

	// Independent I/O has no collective plan to serve.
	req := multiRankRequest()
	req.Strategy = strategy.Independent
	body, _ := json.Marshal(req)
	resp, data := post(t, url, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("independent plan: %d, want 400", resp.StatusCode)
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &er); err != nil || !strings.Contains(er.Error, strategy.PlannedList()) {
		t.Fatalf("error body %s does not list the plannable strategies", data)
	}

	// Unknown strategies are refused on both endpoints.
	req.Strategy = "bogus"
	body, _ = json.Marshal(req)
	if resp, _ := post(t, url, body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown strategy plan: %d, want 400", resp.StatusCode)
	}
	assertNoPlannerPanics(t, srv)
}

// TestSimulateStrategies drives /v1/simulate across all four
// strategies: every one runs, echoes its name, and reports plausible
// bandwidth; the two-layer run reports elected leaders.
func TestSimulateStrategies(t *testing.T) {
	srv := startServer(t, Config{})
	url := "http://" + srv.Addr() + "/v1/simulate"

	for _, s := range strategy.Names() {
		req := SimRequest{PlanRequest: multiRankRequest(), Op: "write"}
		req.Strategy = s
		body, _ := json.Marshal(req)
		resp, data := post(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s simulate: %d %s", s, resp.StatusCode, data)
		}
		var sr SimResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Strategy != s {
			t.Fatalf("echoed strategy %q, want %q", sr.Strategy, s)
		}
		if sr.BandwidthMBps <= 0 || sr.Bytes != 4<<20 {
			t.Fatalf("%s: implausible simulation: %+v", s, sr)
		}
	}

	req := SimRequest{PlanRequest: multiRankRequest(), Op: "read"}
	req.Strategy = "bogus"
	body, _ := json.Marshal(req)
	if resp, _ := post(t, url, body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown strategy simulate: %d, want 400", resp.StatusCode)
	}
	assertNoPlannerPanics(t, srv)
}
