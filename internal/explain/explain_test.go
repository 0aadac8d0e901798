package explain

import (
	"bytes"
	"strings"
	"testing"
)

// sampleEvents builds a small but representative decision log: one run
// marker, a plan with two groups, a tree with one bisection, a remerge
// with its candidate audit, a placement, and a memory sample.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindRun, Group: -1, Key: "mem=4MB/mccio/write"},
		{Kind: KindGroups, Group: -1, Op: "write", TotalBytes: 1 << 20, Msggroup: 1 << 19,
			Groups: []GroupInfo{{First: 0, Last: 11, Nodes: 1, Bytes: 1 << 19}, {First: 12, Last: 23, Nodes: 1, Bytes: 1 << 19}}},
		{Kind: KindTree, Group: 0, Lo: 0, Hi: 1 << 19, Data: 1 << 19, Leaves: 2, Msgind: 1 << 18, MaxAggs: 2},
		{Kind: KindBisect, Group: 0, Lo: 0, Hi: 1 << 19, Data: 1 << 19, Cut: 1 << 18, LeftData: 1 << 18, RightData: 1 << 18},
		{Kind: KindRemerge, Group: 0, Lo: 1 << 18, Hi: 1 << 19, Data: 1 << 18,
			Variant: VariantSibling, Reason: "no candidate can offer Memmin=1048576 bytes",
			Threshold: 1 << 20, BestShare: 1 << 18, Node: 0,
			Candidates: []Candidate{{Node: 0, Avail: 1 << 18, Share: 1 << 18, Aggs: 1}},
			TakerLo:    0, TakerHi: 1 << 19},
		{Kind: KindPlace, Group: 0, Lo: 0, Hi: 1 << 19, Data: 1 << 19,
			Node: 0, Rank: 0, Buf: 1 << 19, Avail: 1 << 20, Headroom: 1 << 19,
			RunnersUp: []Candidate{{Node: 1, Avail: 1 << 18}}},
		{Kind: KindMemTL, Group: -1, Node: 0, Round: 0, Used: 1 << 19, Peak: 1 << 19, Cap: 1 << 21},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONLEvents(&buf, in); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), Schema) {
		t.Fatalf("serialized log missing schema header:\n%s", buf.String())
	}
	out, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip returned %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Kind != in[i].Kind || out[i].Group != in[i].Group {
			t.Errorf("event %d: got kind=%q group=%d, want kind=%q group=%d",
				i, out[i].Kind, out[i].Group, in[i].Kind, in[i].Group)
		}
	}
	re := out[4]
	if re.Kind != KindRemerge || re.Reason == "" || len(re.Candidates) != 1 || re.Candidates[0].Avail != 1<<18 {
		t.Errorf("remerge payload mangled: %+v", re)
	}
}

func TestParseJSONLTruncatedFinalLine(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONLEvents(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()
	// Chop the final record mid-JSON, as an interrupted writer would.
	cut := strings.LastIndexByte(strings.TrimRight(whole, "\n"), '{') + 5
	events, err := ParseJSONL(strings.NewReader(whole[:cut]))
	if err != nil {
		t.Fatalf("truncated final line should be tolerated: %v", err)
	}
	if len(events) != len(sampleEvents())-1 {
		t.Fatalf("got %d events from truncated log, want %d", len(events), len(sampleEvents())-1)
	}
}

func TestParseJSONLMidStreamGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONLEvents(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lines[2] = "{this is not json}\n"
	if _, err := ParseJSONL(strings.NewReader(strings.Join(lines, ""))); err == nil {
		t.Fatal("garbage mid-stream should be an error, not tolerated as truncation")
	}
}

func TestParseJSONLSchemaMismatch(t *testing.T) {
	in := `{"kind":"header","t":0,"group":-1,"schema":"mccio-explain/999"}` + "\n"
	if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("unsupported schema should be rejected")
	}
}

func TestParseJSONLKindlessRecord(t *testing.T) {
	in := `{"t":0,"group":-1}` + "\n" + `{"kind":"run","t":0,"group":-1}` + "\n"
	if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("record without kind should be rejected")
	}
}

func TestRecorderClockStamping(t *testing.T) {
	r := NewRecorder()
	now := 1.5
	r.SetClock(func() float64 { return now })
	r.Bisect(0, 0, 100, 100, 50, 50)
	now = 2.5
	r.MemSample(0, 0, 10, 20, 30)
	ev := r.Events()
	if ev[0].T != 1.5 || ev[1].T != 2.5 {
		t.Fatalf("timestamps %v, %v; want 1.5, 2.5", ev[0].T, ev[1].T)
	}
	// An event carrying its own stamp keeps it.
	r.Record(Event{Kind: KindRun, T: 9})
	if got := r.Events()[2].T; got != 9 {
		t.Fatalf("pre-stamped event rewritten to %v", got)
	}
}

func TestRecorderAppendAndReset(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	a.Run("row-0")
	b.Run("row-1")
	b.Bisect(0, 0, 10, 10, 5, 5)
	merged := NewRecorder()
	merged.Append(a.Events())
	merged.Append(b.Events())
	if merged.Len() != 3 {
		t.Fatalf("merged %d events, want 3", merged.Len())
	}
	if ev := merged.Events(); ev[0].Key != "row-0" || ev[1].Key != "row-1" {
		t.Fatalf("row order not preserved: %+v", ev[:2])
	}
	merged.Reset()
	if merged.Len() != 0 {
		t.Fatalf("reset left %d events", merged.Len())
	}
}

// TestNilRecorder proves the disabled API surface is a no-op: every
// method on a nil *Recorder returns without panicking.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.SetClock(func() float64 { return 0 })
	r.Record(Event{Kind: KindRun})
	r.Run("x")
	r.Bisect(0, 0, 1, 1, 0, 0)
	r.MemSample(0, 0, 0, 0, 0)
	r.Append([]Event{{Kind: KindRun}})
	r.Reset()
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder holds events")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledRecorderAllocs is the acceptance gate in test form: the
// scalar-only record paths on a disabled (nil) recorder allocate
// nothing.
func TestDisabledRecorderAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Bisect(3, 0, 1<<20, 1<<20, 1<<19, 1<<19)
		r.MemSample(1, 2, 100, 200, 300)
		if r.Enabled() {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %v per op, want 0", allocs)
	}
}

// BenchmarkRecorderDisabled must report 0 allocs/op: the planner and
// round engine call these unconditionally on every run.
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Bisect(0, 0, 1<<20, 1<<20, 1<<19, 1<<19)
		r.MemSample(0, i, 100, 200, 300)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleEvents())
	want := Summary{Runs: 1, Plans: 1, Groups: 2, Bisections: 1,
		Remerges: 1, RemergeSibling: 1, Placements: 1, MemSamples: 1}
	if s != want {
		t.Fatalf("summary = %+v, want %+v", s, want)
	}
	var buf bytes.Buffer
	s.WriteText(&buf)
	for _, want := range []string{"1 plan(s), 2 group(s)", "remerges:          1 (1 sibling-takeover, 0 dfs)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary text missing %q:\n%s", want, buf.String())
		}
	}
}

// FuzzParseJSONL: a decision log comes from outside the program — the
// parser returns an error, or events that re-encode and parse back to
// as many; never a panic.
func FuzzParseJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSONLEvents(&buf, sampleEvents()); err != nil {
		f.Fatal(err)
	}
	whole := buf.String()
	f.Add(whole)
	f.Add(whole[:strings.LastIndexByte(strings.TrimRight(whole, "\n"), '{')+5]) // truncated final line
	f.Add(`{"kind":"header","t":0,"group":-1,"schema":"mccio-explain/999"}` + "\n")
	f.Add(`{"t":0,"group":-1}` + "\n" + `{"kind":"run","t":0,"group":-1}` + "\n")
	f.Add("{this is not json}\n" + whole)
	f.Fuzz(func(t *testing.T, in string) {
		events, err := ParseJSONL(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSONLEvents(&out, events); err != nil {
			t.Fatal(err)
		}
		if back, err := ParseJSONL(&out); err != nil || len(back) != len(events) {
			t.Fatalf("accepted events do not round-trip: %v (%d of %d)", err, len(back), len(events))
		}
	})
}
