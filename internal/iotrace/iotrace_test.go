package iotrace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/workload"
)

func sample() *Trace {
	t := &Trace{}
	t.Add(0, Write, 0, 100)
	t.Add(1, Write, 100, 100)
	t.Add(0, Read, 0, 50)
	t.Add(2, Write, 300, 10)
	return t
}

func TestRoundTripSerialization(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != len(tr.Requests) {
		t.Fatalf("%d requests, want %d", len(got.Requests), len(tr.Requests))
	}
	for i := range got.Requests {
		if got.Requests[i] != tr.Requests[i] {
			t.Fatalf("request %d: %+v != %+v", i, got.Requests[i], tr.Requests[i])
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"0 w 0 100\n",                                                    // no header
		"#mccio-trace v1\n0 w 0\n",                                       // short line
		"#mccio-trace v1\n-1 w 0 10\n",                                   // negative rank
		"#mccio-trace v1\n0 x 0 10\n",                                    // bad op
		"#mccio-trace v1\n0 w -5 10\n",                                   // negative offset
		"#mccio-trace v1\n0 w 0 0\n",                                     // zero length
		"#mccio-trace v1\n0 w 0 banana\n",                                // non-numeric
		"#mccio-trace v1\n4000000000000 w 0 10\n",                        // a rank no machine has
		"#mccio-trace v1\n0 r 9223372036854775807 9223372036854775807\n", // offset + length overflows
		"",                                  // empty
		"# a comment but no version line\n", // missing header
	}
	for i, s := range bad {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("case %d accepted: %q", i, s)
		}
	}
}

func TestParseTolerantOfCommentsAndBlanks(t *testing.T) {
	in := "#mccio-trace v1\n\n# hello\n0 w 10 20\n\n"
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 1 || tr.Requests[0].Off != 10 {
		t.Fatalf("%+v", tr.Requests)
	}
}

func TestFromWorkloadAndReplayEquivalence(t *testing.T) {
	wl := workload.IOR{Ranks: 6, BlockSize: 4 << 10, Segments: 5}
	tr := FromWorkload(wl, Write)
	rp, err := NewReplay(tr, Write)
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumRanks() != wl.NumRanks() || rp.TotalBytes() != wl.TotalBytes() {
		t.Fatalf("replay %d ranks %d bytes, want %d/%d",
			rp.NumRanks(), rp.TotalBytes(), wl.NumRanks(), wl.TotalBytes())
	}
	for r := 0; r < wl.NumRanks(); r++ {
		if !rp.View(r).Equal(wl.View(r)) {
			t.Fatalf("rank %d view mismatch", r)
		}
	}
}

func TestReplayRejectsOverlappingWrites(t *testing.T) {
	tr := &Trace{}
	tr.Add(0, Write, 0, 100)
	tr.Add(1, Write, 50, 100)
	if _, err := NewReplay(tr, Write); err == nil {
		t.Fatal("overlapping writes accepted")
	}
	// Overlapping reads are fine.
	tr2 := &Trace{}
	tr2.Add(0, Read, 0, 100)
	tr2.Add(1, Read, 50, 100)
	if _, err := NewReplay(tr2, Read); err != nil {
		t.Fatal(err)
	}
}

func TestReplayFiltersOp(t *testing.T) {
	rp, err := NewReplay(sample(), Read)
	if err != nil {
		t.Fatal(err)
	}
	if rp.TotalBytes() != 50 {
		t.Fatalf("read bytes %d, want 50", rp.TotalBytes())
	}
	if len(rp.View(1)) != 0 || len(rp.View(2)) != 0 {
		t.Fatal("ranks without reads must have empty views")
	}
}

func TestAnalyze(t *testing.T) {
	s := Analyze(sample())
	if s.Ranks != 3 || s.Requests != 4 || s.Bytes != 260 {
		t.Fatalf("%+v", s)
	}
	if s.MinLen != 10 || s.MaxLen != 100 || s.FileExtent != 310 {
		t.Fatalf("%+v", s)
	}
	if s.WriteShare != 0.75 {
		t.Fatalf("write share %g", s.WriteShare)
	}
	if s.SizeBuckets["<4K"] != 4 {
		t.Fatalf("buckets %+v", s.SizeBuckets)
	}
}

func TestAnalyzeInterleaveDistinguishesLayouts(t *testing.T) {
	serial := FromWorkload(workload.Checkpoint{Ranks: 8, MeanBytes: 1 << 20}, Write)
	inter := FromWorkload(workload.IOR{Ranks: 8, BlockSize: 64 << 10, Segments: 16}, Write)
	si, ii := Analyze(serial).Interleave, Analyze(inter).Interleave
	if si > 1.01 {
		t.Fatalf("serial layout interleave %g, want ~1", si)
	}
	if ii < 4 {
		t.Fatalf("interleaved layout interleave %g, want >> 1", ii)
	}
}

func TestSerializationPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tr := &Trace{}
		n := 1 + r.Intn(50)
		for i := 0; i < n; i++ {
			op := Write
			if r.Intn(2) == 0 {
				op = Read
			}
			tr.Add(r.Intn(16), op, r.Int63n(1<<40), 1+r.Int63n(1<<20))
		}
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil || len(got.Requests) != len(tr.Requests) {
			return false
		}
		for i := range got.Requests {
			if got.Requests[i] != tr.Requests[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzIotraceParse feeds arbitrary bytes through the trace reader and
// the replay builder — the path `mccio-trace stat|run FILE` takes with
// a file it did not write. Either step may reject the input; neither
// may panic, and what is accepted must be usable: non-negative ranks,
// canonical per-rank views whose bytes add up, and a serialization
// that parses back to the same requests.
func FuzzIotraceParse(f *testing.F) {
	var buf bytes.Buffer
	if err := sample().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("#mccio-trace v1\n\n# hello\n0 w 10 20\n\n")
	f.Add("#mccio-trace v1\n0 w 0 10\n1 w 5 10\n")                          // overlap across ranks
	f.Add("#mccio-trace v1\n0 w 0\n")                                       // short line
	f.Add("#mccio-trace v1\n-1 w 0 10\n")                                   // negative rank
	f.Add("#mccio-trace v1\n4000000000000 w 0 10\n")                        // absurd rank
	f.Add("#mccio-trace v1\n0 r 9223372036854775807 9223372036854775807\n") // offset + length overflows
	f.Add("# a comment but no version line\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(&out)
		if err != nil || len(back.Requests) != len(tr.Requests) {
			t.Fatalf("accepted trace does not round-trip: %v (%d of %d requests)", err, len(back.Requests), len(tr.Requests))
		}
		for _, op := range []Op{Write, Read} {
			rp, err := NewReplay(tr, op)
			if err != nil {
				continue
			}
			var sum int64
			for r := 0; r < rp.NumRanks(); r++ {
				if !rp.View(r).IsCanonical() {
					t.Fatalf("rank %d view not canonical: %v", r, rp.View(r))
				}
				sum += rp.View(r).TotalBytes()
			}
			if sum != rp.TotalBytes() || sum < 0 {
				t.Fatalf("views hold %d bytes, TotalBytes %d", sum, rp.TotalBytes())
			}
		}
	})
}
