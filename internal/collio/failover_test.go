package collio

import (
	"reflect"
	"testing"

	"repro/internal/datatype"
)

// failPlan builds a three-domain plan with two windows each, the shape
// the failover tests carve up.
func failPlan() *Plan {
	mk := func(agg int, lo int64) Domain {
		return Domain{
			Agg: agg, Lo: lo, Hi: lo + 200, BufBytes: 100, Sibling: -1,
			Windows: []datatype.Segment{{Off: lo, Len: 100}, {Off: lo + 100, Len: 100}},
		}
	}
	p := &Plan{Domains: []Domain{mk(0, 0), mk(1, 200), mk(2, 400)}}
	p.Rounds = p.MaxRounds()
	return p
}

func killOnly(idx int) func(d *Domain) (bool, bool) {
	return func(d *Domain) (bool, bool) { return d.Agg == idx, true }
}

func TestApplyFailoverRemerge(t *testing.T) {
	p := failPlan()
	p.Domains[0].Sibling = 1
	evs := applyFailover(p, 1, killOnly(0))
	if len(evs) != 1 {
		t.Fatalf("events = %+v, want 1", evs)
	}
	ev := evs[0]
	if ev.Failed != 0 || ev.Taker != 1 || ev.Round != 1 || !ev.ByNodeFailure || ev.Bytes != 100 {
		t.Errorf("event %+v, want failed=0 taker=1 round=1 byNode bytes=100", ev)
	}
	f, tk := &p.Domains[0], &p.Domains[1]
	// Tombstone: schedule truncated at the failed round, extent collapsed.
	if len(f.Windows) != 1 || f.Hi != f.Lo {
		t.Errorf("failed domain not tombstoned: windows=%v extent=[%d,%d)", f.Windows, f.Lo, f.Hi)
	}
	// Taker: own round-0/1 windows, then the absorbed round-1 window.
	want := []datatype.Segment{{Off: 200, Len: 100}, {Off: 300, Len: 100}, {Off: 100, Len: 100}}
	if !reflect.DeepEqual(tk.Windows, want) {
		t.Errorf("taker windows = %v, want %v", tk.Windows, want)
	}
	if tk.Lo != 0 || tk.Hi != 400 {
		t.Errorf("taker extent = [%d,%d), want union [0,400)", tk.Lo, tk.Hi)
	}
	if p.Rounds != 3 {
		t.Errorf("rounds = %d, want 3 (taker grew a round)", p.Rounds)
	}
}

// TestApplyFailoverPadding: a taker already finished with its own
// schedule gets inert zero-length windows up to the failed round, so
// the absorbed windows keep their round indices.
func TestApplyFailoverPadding(t *testing.T) {
	p := failPlan()
	p.Domains[1].Windows = p.Domains[1].Windows[:1] // taker has 1 round only
	p.Domains[0].Sibling = 1
	evs := applyFailover(p, 1, killOnly(0))
	if len(evs) != 1 || evs[0].Taker != 1 {
		t.Fatalf("events = %+v", evs)
	}
	tk := p.Domains[1]
	if len(tk.Windows) != 2 {
		t.Fatalf("taker windows = %v, want 2 (1 own + 1 absorbed)", tk.Windows)
	}
	if tk.Windows[1].Len != 100 || tk.Windows[1].Off != 100 {
		t.Errorf("absorbed window landed wrong: %v", tk.Windows)
	}

	// Same shape but failing at round 2: the taker needs a zero-length
	// pad at index 1 before the (empty) absorption point.
	p2 := failPlan()
	p2.Domains[0].Windows = append(p2.Domains[0].Windows, datatype.Segment{Off: 250, Len: 50})
	p2.Domains[0].Hi = 300
	p2.Domains[1].Windows = p2.Domains[1].Windows[:1]
	p2.Domains[0].Sibling = 1
	evs = applyFailover(p2, 2, killOnly(0))
	if len(evs) != 1 {
		t.Fatalf("events = %+v", evs)
	}
	tk2 := p2.Domains[1]
	if len(tk2.Windows) != 3 {
		t.Fatalf("taker windows = %v, want 3 (own, pad, absorbed)", tk2.Windows)
	}
	if tk2.Windows[1].Len != 0 {
		t.Errorf("pad window not zero-length: %v", tk2.Windows[1])
	}
	if tk2.Windows[2].Len != 50 {
		t.Errorf("absorbed window = %v, want the round-2 remainder", tk2.Windows[2])
	}
}

func TestApplyFailoverSiblingPreference(t *testing.T) {
	p := failPlan()
	p.Domains[0].Sibling = 2 // planner says 2, even though 1 is nearer
	evs := applyFailover(p, 0, killOnly(0))
	if evs[0].Taker != 2 {
		t.Errorf("taker = %d, want the designated sibling 2", evs[0].Taker)
	}

	// Dead sibling: fall back to the nearest survivor.
	p = failPlan()
	p.Domains[0].Sibling = 1
	dead := func(d *Domain) (bool, bool) { return d.Agg == 0 || d.Agg == 1, true }
	evs = applyFailover(p, 0, dead)
	for _, ev := range evs {
		if ev.Failed == 0 && ev.Taker != 2 {
			t.Errorf("taker = %d, want fallback survivor 2", ev.Taker)
		}
	}
}

// TestApplyFailoverNoSurvivor: every aggregator lost. The domains keep
// their schedules (degraded service on the failed nodes — no data can
// move anywhere) and each failure is reported with Taker -1.
func TestApplyFailoverNoSurvivor(t *testing.T) {
	p := failPlan()
	before := append([]Domain(nil), p.Domains...)
	evs := applyFailover(p, 0, func(d *Domain) (bool, bool) { return true, true })
	if len(evs) != 3 {
		t.Fatalf("events = %+v, want 3", evs)
	}
	for _, ev := range evs {
		if ev.Taker != -1 {
			t.Errorf("event %+v: want Taker -1", ev)
		}
	}
	for i := range before {
		if !reflect.DeepEqual(before[i].Windows, p.Domains[i].Windows) {
			t.Errorf("domain %d mutated with no survivor: %v", i, p.Domains[i].Windows)
		}
	}
}

// TestApplyFailoverPastSchedule: a dead aggregator whose domain already
// finished its windows needs no remerge.
func TestApplyFailoverPastSchedule(t *testing.T) {
	p := failPlan()
	if evs := applyFailover(p, 2, killOnly(0)); evs != nil {
		t.Errorf("events = %+v, want none (schedule exhausted at round 2)", evs)
	}
}

// TestApplyFailoverDeterministic: identical plans and predicates yield
// deep-equal mutations and event lists — the property that lets every
// rank run the check independently on its plan copy.
func TestApplyFailoverDeterministic(t *testing.T) {
	mk := func() *Plan {
		p := failPlan()
		p.Domains[0].Sibling = 1
		return p
	}
	a, b := mk(), mk()
	ea := applyFailover(a, 1, killOnly(0))
	eb := applyFailover(b, 1, killOnly(0))
	if !reflect.DeepEqual(ea, eb) {
		t.Errorf("events differ: %+v vs %+v", ea, eb)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plans diverged:\n%+v\n%+v", a, b)
	}
}
