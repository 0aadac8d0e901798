package faults

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSpec(t *testing.T) {
	path := writeSpec(t, `{
		"seed": 7,
		"retry": {"timeout_s": 0.002, "backoff": 2, "max_timeout_s": 0.05, "max_retries": 4},
		"mem_pressure": [{"node": 1, "round": 1, "bytes": 2097152}],
		"slow_osts": [{"ost": 3, "factor": 4, "from_s": 0.0}],
		"slow_links": [{"node": 2, "factor": 2, "from_s": 0, "until_s": 1}],
		"node_failures": [{"node": 1, "round": 2}],
		"messages": {"drop_rate": 0.05, "delay_rate": 0.02, "delay_mean_s": 0.001}
	}`)
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.MemPressure) != 1 || s.MemPressure[0].Bytes != 2<<20 ||
		s.SlowOSTs[0].Factor != 4 || s.SlowLinks[0].UntilSec != 1 ||
		s.NodeFailures[0].Round != 2 || s.Messages.DropRate != 0.05 {
		t.Errorf("parsed spec wrong: %+v", s)
	}
}

func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	path := writeSpec(t, `{"seed": 1, "mem_presure": []}`)
	if _, err := LoadSpec(path); err == nil {
		t.Error("typo'd field should fail loudly, got nil error")
	} else if !strings.Contains(err.Error(), "mem_presure") {
		t.Errorf("error should name the unknown field: %v", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{MemPressure: []MemPressure{{Node: 0, Round: 0, Bytes: 0}}},
		{MemPressure: []MemPressure{{Node: -1, Round: 0, Bytes: 1}}},
		{SlowOSTs: []SlowOST{{OST: 0, Factor: 0.5}}},
		{SlowOSTs: []SlowOST{{OST: 0, Factor: 2, FromSec: 5, UntilSec: 1}}},
		{SlowLinks: []SlowLink{{Node: 0, Factor: 0.9}}},
		{NodeFailures: []NodeFailure{{Node: 0, Round: -1}}},
		{Messages: MessageSpec{DropRate: 1.5}},
		{Messages: MessageSpec{DelayRate: -0.1}},
		{Messages: MessageSpec{DelayRate: 0.1}}, // delay without a mean
		{Retry: RetrySpec{TimeoutSec: -1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad[%d] %+v: want error, got nil", i, s)
		}
	}
	ok := Spec{
		MemPressure:  []MemPressure{{Node: 0, Round: 0, Bytes: 1}},
		SlowOSTs:     []SlowOST{{OST: 0, Factor: 1}},
		NodeFailures: []NodeFailure{{Node: 3, Round: 0}},
		Messages:     MessageSpec{DropRate: 1, DelayRate: 0.5, DelayMeanSec: 1e-3},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestExchangeDropsDeterministic pins the two properties the resilience
// machinery depends on: the draw is a pure function of the coordinate
// (same across schedules with the same seed, order-independent), and it
// never exceeds the retry budget.
func TestExchangeDropsDeterministic(t *testing.T) {
	spec := Spec{Seed: 99, Messages: MessageSpec{DropRate: 0.5}}
	a, err := NewSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	type coord struct{ g, r, k int }
	var coords []coord
	for g := 0; g < 3; g++ {
		for r := 0; r < 4; r++ {
			for k := 0; k < 8; k++ {
				coords = append(coords, coord{g, r, k})
			}
		}
	}
	forward := make(map[coord]int)
	sawDrop := false
	for _, c := range coords {
		d := a.ExchangeDrops(c.g, c.r, c.k)
		if d < 0 || d > a.Spec().Retry.MaxRetries {
			t.Fatalf("drops %d outside retry budget %d", d, a.Spec().Retry.MaxRetries)
		}
		if d > 0 {
			sawDrop = true
		}
		forward[c] = d
	}
	if !sawDrop {
		t.Fatal("drop rate 0.5 never dropped — draw is broken")
	}
	// Second schedule, coordinates visited in reverse: identical draws.
	for i := len(coords) - 1; i >= 0; i-- {
		c := coords[i]
		if d := b.ExchangeDrops(c.g, c.r, c.k); d != forward[c] {
			t.Fatalf("draw at %+v order-dependent: %d vs %d", c, d, forward[c])
		}
	}
	// A different seed moves the draws.
	diff, _ := NewSchedule(Spec{Seed: 100, Messages: MessageSpec{DropRate: 0.5}})
	same := true
	for _, c := range coords {
		if diff.ExchangeDrops(c.g, c.r, c.k) != forward[c] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed does not influence the drop draws")
	}
}

func TestRetryPenalty(t *testing.T) {
	s, err := NewSchedule(Spec{Retry: RetrySpec{TimeoutSec: 1, Backoff: 2, MaxTimeoutSec: 3, MaxRetries: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// 1, 2, then capped at 3.
	cases := map[int]float64{0: 0, 1: 1, 2: 3, 3: 6, 4: 9}
	for drops, want := range cases {
		if got := s.RetryPenalty(drops); got != want {
			t.Errorf("RetryPenalty(%d) = %g, want %g", drops, got, want)
		}
	}
}

func TestFactorWindows(t *testing.T) {
	s, err := NewSchedule(Spec{
		SlowOSTs: []SlowOST{
			{OST: 2, Factor: 3, FromSec: 1, UntilSec: 2},
			{OST: 2, Factor: 2, FromSec: 0}, // forever
		},
		SlowLinks: []SlowLink{{Node: 1, Factor: 4, FromSec: 0.5, UntilSec: 1.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.OSTFactor(2, 0.5); got != 2 {
		t.Errorf("OSTFactor(2, 0.5) = %g, want 2 (only the open-ended entry)", got)
	}
	if got := s.OSTFactor(2, 1.5); got != 6 {
		t.Errorf("OSTFactor(2, 1.5) = %g, want 6 (both entries compound)", got)
	}
	if got := s.OSTFactor(2, 2.0); got != 2 {
		t.Errorf("OSTFactor(2, 2.0) = %g, want 2 (window is half-open)", got)
	}
	if got := s.OSTFactor(0, 1.5); got != 1 {
		t.Errorf("OSTFactor(0, 1.5) = %g, want 1 (other OST untouched)", got)
	}
	if got := s.LinkFactor(1, 1.0); got != 4 {
		t.Errorf("LinkFactor(1, 1.0) = %g, want 4", got)
	}
	if got := s.LinkFactor(1, 2.0); got != 1 {
		t.Errorf("LinkFactor(1, 2.0) = %g, want 1 (expired)", got)
	}
}

func TestApplyPressureExactlyOnce(t *testing.T) {
	s, err := NewSchedule(Spec{MemPressure: []MemPressure{
		{Node: 0, Round: 0, Bytes: 10},
		{Node: 1, Round: 2, Bytes: 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got []MemPressure
	apply := func(node int, bytes int64) { got = append(got, MemPressure{Node: node, Bytes: bytes}) }
	s.ApplyPressure(0, apply)
	s.ApplyPressure(0, apply) // re-check same round: no double application
	s.ApplyPressure(3, apply) // later round picks up the round-2 entry
	s.ApplyPressure(3, apply)
	want := []MemPressure{{Node: 0, Bytes: 10}, {Node: 1, Bytes: 20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("applied %+v, want %+v", got, want)
	}
	if s.Injected() != 2 {
		t.Errorf("injected = %d, want 2", s.Injected())
	}
	// The pure predicate is cumulative and unaffected by application.
	if p := s.PressureBy(1, 1); p != 0 {
		t.Errorf("PressureBy(1, 1) = %d, want 0 (entry due at round 2)", p)
	}
	if p := s.PressureBy(1, 2); p != 20 {
		t.Errorf("PressureBy(1, 2) = %d, want 20", p)
	}
}

func TestNodeFailedBy(t *testing.T) {
	s, err := NewSchedule(Spec{NodeFailures: []NodeFailure{{Node: 2, Round: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.NodeFailedBy(2, 2) {
		t.Error("node reported failed before its round")
	}
	if !s.NodeFailedBy(2, 3) || !s.NodeFailedBy(2, 7) {
		t.Error("node failure must persist from its round on")
	}
	if s.NodeFailedBy(1, 9) {
		t.Error("unrelated node reported failed")
	}
}

// TestBindCountsScheduleFaults checks that schedule-level faults (slow
// entries, node failures) land in the injected counter and the metrics
// registry once, and that Bind is idempotent.
func TestBindCountsScheduleFaults(t *testing.T) {
	s, err := NewSchedule(Spec{
		SlowOSTs:     []SlowOST{{OST: 0, Factor: 2}},
		SlowLinks:    []SlowLink{{Node: 1, Factor: 2}},
		NodeFailures: []NodeFailure{{Node: 0, Round: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	tr := obs.NewTracer()
	s.Bind(reg, tr)
	s.Bind(reg, tr) // idempotent
	if s.Injected() != 3 {
		t.Errorf("injected = %d, want 3 (2 slow + 1 node)", s.Injected())
	}
	snap := reg.Snapshot()
	if v, ok := snap.Get("faults_injected_total", map[string]string{"class": "slow"}); !ok || v != 2 {
		t.Errorf("faults_injected_total{class=slow} = %v, %v; want 2", v, ok)
	}
	if v, ok := snap.Get("faults_injected_total", map[string]string{"class": "node"}); !ok || v != 1 {
		t.Errorf("faults_injected_total{class=node} = %v, %v; want 1", v, ok)
	}
	var faultEvents int
	for _, e := range tr.Events() {
		if e.Phase.Category() == "fault" {
			faultEvents++
		}
	}
	if faultEvents != 3 {
		t.Errorf("fault trace instants = %d, want 3", faultEvents)
	}
}

// TestNilScheduleSafe drives every public method through a nil receiver:
// the disabled path must answer "no fault" and never dereference.
func TestNilScheduleSafe(t *testing.T) {
	var s *Schedule
	s.Bind(nil, nil)
	if s.NodeFailedBy(0, 0) || s.PressureBy(0, 0) != 0 {
		t.Error("nil schedule reported faults")
	}
	s.ApplyPressure(0, func(int, int64) { t.Error("nil schedule applied pressure") })
	if s.OSTFactor(0, 0) != 1 || s.LinkFactor(0, 0) != 1 {
		t.Error("nil schedule slowed something")
	}
	if s.MessageDelay(0, 1, 0) != 0 || s.ExchangeDrops(0, 0, 0) != 0 || s.RetryPenalty(3) != 0 {
		t.Error("nil schedule injected message faults")
	}
	s.RecordDrops(obs.NoLoc, 1, 1)
	s.RecordFailover(obs.NoLoc, true, 1, 0)
	s.RecordUnrecovered(obs.NoLoc, 0)
	if s.Injected() != 0 || s.Failovers() != 0 || s.Unrecovered() != 0 || s.Dropped() != 0 {
		t.Error("nil schedule accumulated counters")
	}
	if !reflect.DeepEqual(s.Spec(), Spec{}) {
		t.Error("nil schedule has a spec")
	}
}

// TestMessageDelayDeterministic: two schedules from the same spec
// produce the identical delay sequence.
func TestMessageDelayDeterministic(t *testing.T) {
	spec := Spec{Seed: 5, Messages: MessageSpec{DelayRate: 0.5, DelayMeanSec: 1e-3}}
	a, _ := NewSchedule(spec)
	b, _ := NewSchedule(spec)
	var da, db []float64
	for i := 0; i < 200; i++ {
		da = append(da, a.MessageDelay(0, 1, 0))
		db = append(db, b.MessageDelay(0, 1, 0))
	}
	if !reflect.DeepEqual(da, db) {
		t.Error("delay sequence differs between identical schedules")
	}
	var nonzero int
	for _, d := range da {
		if d > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("delay rate 0.5 never delayed")
	}
	if a.Injected() != int64(nonzero) {
		t.Errorf("injected = %d, want %d (one per delay)", a.Injected(), nonzero)
	}
}

func TestRetryDefaults(t *testing.T) {
	s, err := NewSchedule(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Spec().Retry
	if r.TimeoutSec != 2e-3 || r.Backoff != 2 || r.MaxTimeoutSec != 50e-3 || r.MaxRetries != 4 {
		t.Errorf("defaults wrong: %+v", r)
	}
	s2, err := NewSchedule(Spec{Retry: RetrySpec{TimeoutSec: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Spec().Retry.MaxTimeoutSec; got != 0.1 {
		t.Errorf("MaxTimeoutSec = %g, want raised to TimeoutSec 0.1", got)
	}
}

func TestRankFailedBy(t *testing.T) {
	s, err := NewSchedule(Spec{RankFailures: []RankFailure{{Rank: 5, Round: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.RankFailedBy(5, 1) {
		t.Error("rank reported failed before its round")
	}
	if !s.RankFailedBy(5, 2) || !s.RankFailedBy(5, 6) {
		t.Error("rank failure must persist from its round on")
	}
	if s.RankFailedBy(4, 9) {
		t.Error("unrelated rank reported failed")
	}
	var nilSched *Schedule
	if nilSched.RankFailedBy(0, 0) {
		t.Error("nil schedule reported a failed rank")
	}
}

func TestRankFailureSpec(t *testing.T) {
	path := writeSpec(t, `{"seed": 1, "rank_failures": [{"rank": 3, "round": 0}, {"rank": 1, "round": 2}]}`)
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []RankFailure{{Rank: 3, Round: 0}, {Rank: 1, Round: 2}}
	if !reflect.DeepEqual(s.RankFailures, want) {
		t.Fatalf("parsed rank failures %+v, want %+v", s.RankFailures, want)
	}
	for _, bad := range []Spec{
		{RankFailures: []RankFailure{{Rank: -1, Round: 0}}},
		{RankFailures: []RankFailure{{Rank: 0, Round: -2}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v: want error, got nil", bad)
		}
	}
}

// TestSpecFits: each entry kind that names a node, rank or OST past
// the platform's counts is rejected with the entry in the message,
// and the same entry one inside the counts passes.
func TestSpecFits(t *testing.T) {
	const nodes, ranks, osts = 2, 24, 16
	for _, c := range []struct {
		kind     string
		out, in  Spec
		mentions string
	}{
		{"mem_pressure", Spec{MemPressure: []MemPressure{{Node: 99, Bytes: 1000}}},
			Spec{MemPressure: []MemPressure{{Node: nodes - 1, Bytes: 1000}}}, "node 99"},
		{"slow_osts", Spec{SlowOSTs: []SlowOST{{OST: 999, Factor: 2}}},
			Spec{SlowOSTs: []SlowOST{{OST: osts - 1, Factor: 2}}}, "OST 999"},
		{"slow_links", Spec{SlowLinks: []SlowLink{{Node: 99, Factor: 2}}},
			Spec{SlowLinks: []SlowLink{{Node: nodes - 1, Factor: 2}}}, "node 99"},
		{"node_failures", Spec{NodeFailures: []NodeFailure{{Node: 99}}},
			Spec{NodeFailures: []NodeFailure{{Node: nodes - 1}}}, "node 99"},
		{"rank_failures", Spec{RankFailures: []RankFailure{{Rank: 9999}}},
			Spec{RankFailures: []RankFailure{{Rank: ranks - 1}}}, "rank 9999"},
	} {
		err := c.out.Fits(nodes, ranks, osts)
		if err == nil || !strings.Contains(err.Error(), c.kind) || !strings.Contains(err.Error(), c.mentions) {
			t.Errorf("%s: Fits = %v, want an error naming the entry and %q", c.kind, err, c.mentions)
		}
		if err := c.in.Fits(nodes, ranks, osts); err != nil {
			t.Errorf("%s: in-range entry rejected: %v", c.kind, err)
		}
	}
}

// FuzzFaultSpec feeds arbitrary bytes through the path a -faults file
// takes — strict decoding, Validate, NewSchedule, the platform check —
// and then queries the armed schedule over the platform it fits. None
// of it may panic, whatever the spec says.
func FuzzFaultSpec(f *testing.F) {
	for _, name := range []string{"chaos.json", "chaos-leader.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"mem_pressure":[{"node":99,"round":0,"bytes":1000}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var s Spec
		if dec.Decode(&s) != nil || s.Validate() != nil {
			return
		}
		sched, err := NewSchedule(s)
		if err != nil {
			t.Fatalf("NewSchedule rejected a spec Validate accepted: %v", err)
		}
		const nodes, ranks, osts = 4, 16, 16
		if s.Fits(nodes, ranks, osts) != nil {
			return
		}
		sched.Bind(nil, nil)
		for round := 0; round < 4; round++ {
			sched.ApplyPressure(round, func(node int, _ int64) {
				if node < 0 || node >= nodes {
					t.Fatalf("pressure applied to node %d of %d", node, nodes)
				}
			})
			for n := 0; n < nodes; n++ {
				sched.NodeFailedBy(n, round)
				sched.PressureBy(n, round)
				sched.LinkFactor(n, float64(round))
			}
			for o := 0; o < osts; o++ {
				sched.OSTFactor(o, float64(round))
			}
			for r := 0; r < ranks; r++ {
				sched.RankFailedBy(r, round)
				sched.ExchangeDrops(0, round, r)
			}
		}
	})
}
