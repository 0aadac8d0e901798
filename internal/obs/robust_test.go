package obs

import (
	"bytes"
	"strings"
	"testing"
)

const validLine = `{"kind":"span","phase":"io","t0":0,"t1":1,"rank":0,"node":0,"group":-1,"round":0,"bytes":10,"extra":1}`

// TestParseJSONLRobustness drives the parser through empty, garbage,
// and partially-written inputs: truncated final lines are forgiven
// (an interrupted writer), everything else fails cleanly.
func TestParseJSONLRobustness(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		want    int // expected event count when err == nil
		wantErr bool
	}{
		{name: "empty", input: "", want: 0},
		{name: "blank lines only", input: "\n\n  \n", want: 0},
		{name: "single valid", input: validLine + "\n", want: 1},
		{name: "no trailing newline", input: validLine, want: 1},
		{name: "truncated final line", input: validLine + "\n" + validLine[:40], want: 1},
		{name: "truncated only line", input: validLine[:40], wantErr: true},
		{name: "garbage mid-stream", input: validLine + "\nnot json at all\n" + validLine + "\n", wantErr: true},
		{name: "garbage only", input: "not json at all\n", wantErr: true},
		{name: "unknown kind", input: `{"kind":"wat","phase":"io"}` + "\n", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events, err := ParseJSONL(strings.NewReader(tc.input))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got %d events", len(events))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != tc.want {
				t.Errorf("events = %d, want %d", len(events), tc.want)
			}
			// Whatever parsed must summarize and render without panicking.
			var buf bytes.Buffer
			Summarize(events).WriteText(&buf)
		})
	}
}

// TestSummarizeHostileInput checks the aggregator never panics or
// over-allocates on empty or corrupt event streams.
func TestSummarizeHostileInput(t *testing.T) {
	var buf bytes.Buffer

	s := Summarize(nil)
	if s.Elapsed() != 0 || len(s.Phases) != 0 || len(s.Rounds) != 0 {
		t.Errorf("nil events: non-zero summary %+v", s)
	}
	s.WriteText(&buf)

	// A corrupt trace claiming a round in the billions must not blow up
	// the per-round table; the span still lands in the phase totals.
	huge := []Event{{Kind: KindSpan, Phase: PhaseIO, T0: 0, T1: 1,
		Loc: Loc{Rank: 0, Node: 0, Group: -1, Round: 2_000_000_000}, Bytes: 5}}
	s = Summarize(huge)
	if len(s.Rounds) != 0 {
		t.Errorf("out-of-range round built %d round rows", len(s.Rounds))
	}
	if s.PhaseSeconds(PhaseIO) != 1 {
		t.Errorf("phase totals lost the clamped event: %v", s.PhaseSeconds(PhaseIO))
	}
	s.WriteText(&buf)

	// The highest representable round stays, one past it is dropped.
	edge := []Event{
		{Kind: KindSpan, Phase: PhaseIO, T0: 0, T1: 1, Loc: Loc{Round: maxSummaryRounds - 1}},
		{Kind: KindSpan, Phase: PhaseIO, T0: 0, T1: 1, Loc: Loc{Round: maxSummaryRounds}},
	}
	if got := len(Summarize(edge).Rounds); got != maxSummaryRounds {
		t.Errorf("rounds = %d, want %d", got, maxSummaryRounds)
	}
}

// FuzzParseJSONL: a trace file comes from outside the program — the
// parser returns an error, or events that re-encode and parse back to
// as many; never a panic.
func FuzzParseJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleTracer().WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(buf.String()[:buf.Len()-20]) // truncated final line
	f.Add("\n\n  \n")
	f.Add(validLine[:40])
	f.Add(validLine + "\nnot json at all\n" + validLine + "\n")
	f.Add(`{"kind":"wat","phase":"io"}` + "\n")
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
