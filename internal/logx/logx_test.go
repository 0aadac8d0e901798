package logx

import (
	"bytes"
	"strings"
	"testing"
)

func sampleRecord() Record {
	return Record{
		ReqID:       "a1b2c3d4e5f60708",
		Endpoint:    "plan",
		Fingerprint: "mccio-plan-fp/1:deadbeef",
		Cache:       "miss",
		Status:      200,
		Bytes:       4096,
		WaitS:       0.001,
		WorkS:       0.25,
		DurS:        0.2511,
	}
}

func TestRecordJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	want := []Record{
		sampleRecord(),
		{ReqID: "ffff000011112222", Endpoint: "simulate", Status: 422,
			DurS: 0.003, Error: "pland: simulation failed: boom"},
		{ReqID: "0000111122223333", Endpoint: "plan", Cache: "shed",
			Status: 429, DurS: 0.0001, Error: "pland: admission queue full"},
		{ReqID: "4444555566667777", Endpoint: "plan", Shard: "s1", Peer: "s2",
			Cache: "forward-hit", Status: 200, Bytes: 2048, DurS: 0.002},
	}
	for _, rec := range want {
		l.Request(rec)
	}
	got, err := ParseRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records back, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// Every line is also a self-contained JSON object carrying the ID
	// verbatim — the grep-ability contract.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		if !strings.Contains(line, want[i].ReqID) {
			t.Fatalf("line %d does not carry the request ID: %s", i, line)
		}
	}
}

func TestParseRecordsToleratesTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Request(sampleRecord())
	l.Request(sampleRecord())
	full := buf.String()
	cut := full[:len(full)-10] // kill the writer mid-record
	got, err := ParseRecords(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail should be tolerated: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("%d records from truncated log, want 1", len(got))
	}
	// Garbage mid-stream is still an error.
	if _, err := ParseRecords(strings.NewReader("not json\n" + full)); err == nil {
		t.Fatal("mid-stream garbage parsed without error")
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	if l.Enabled() {
		t.Fatal("nil logger claims enabled")
	}
	l.Request(sampleRecord()) // must not panic
}

func TestDisabledLoggerAllocatesNothing(t *testing.T) {
	// The alloc gate: a daemon run without -log must pay nothing for
	// the unconditional Request call in the serving loop.
	var l *Logger
	rec := sampleRecord()
	allocs := testing.AllocsPerRun(100, func() {
		l.Request(rec)
	})
	if allocs != 0 {
		t.Fatalf("disabled logger allocates %.1f per request, want 0", allocs)
	}
}

func TestNewRequestID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex chars", id)
		}
		if !ValidRequestID(id) {
			t.Fatalf("generated id %q fails its own validity check", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestValidRequestID(t *testing.T) {
	for _, ok := range []string{"abc", "A-b_c.9", strings.Repeat("x", 64)} {
		if !ValidRequestID(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "has space",
		"new\nline", `quo"te`, "semi;colon", "naïve"} {
		if ValidRequestID(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// FuzzParseRecords: a request log comes from outside the program — the
// parser returns an error, or records that a Logger writes back and
// the parser reads back to as many; never a panic.
func FuzzParseRecords(f *testing.F) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Request(sampleRecord())
	l.Request(sampleRecord())
	full := buf.String()
	f.Add(full)
	f.Add(full[:len(full)-10]) // truncated final line
	f.Add("not json\n" + full)
	f.Add("\n \n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ParseRecords(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		l := New(&out)
		for _, rec := range recs {
			l.Request(rec)
		}
		if back, err := ParseRecords(&out); err != nil || len(back) != len(recs) {
			t.Fatalf("accepted records do not round-trip: %v (%d of %d)", err, len(back), len(recs))
		}
	})
}
