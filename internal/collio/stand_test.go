package collio_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// standRun is what a verified run leaves: its result, its park census,
// and the bytes it moved (the file after a write, every rank's buffer
// after a read).
type standRun struct {
	res   trace.Result
	stats simtime.Stats
	bytes []byte
}

// runVerified runs one collective with real bytes, each rank's data
// the pattern of its rank, on a file seeded the same way for a read.
func runVerified(t *testing.T, s iolib.Collective, op string, mc cluster.Config, fc pfs.Config, wl workload.IOR) standRun {
	t.Helper()
	e := simtime.NewEngine()
	m, err := cluster.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pfs.New(fc, m)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(e, m, wl.NumRanks())
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("stand.dat")
	var out standRun
	out.bytes = make([]byte, wl.TotalBytes())
	w.Start(func(c *mpi.Comm) {
		view := wl.View(c.Rank())
		data := buffer.NewReal(view.TotalBytes())
		var pos int64
		for _, seg := range view {
			data.Slice(pos, seg.Len).Fill(uint64(c.Rank()), seg.Off)
			pos += seg.Len
		}
		if op == "read" {
			iolib.WriteIndependent(f, c.Proc(), c.WorldRank(c.Rank()), view, data, iolib.SieveOptions{})
			data = buffer.NewReal(view.TotalBytes())
		}
		res := iolib.Run(s, op, f, c, view, data, &trace.Metrics{})
		if c.Rank() == 0 {
			out.res = res
		}
		if op == "read" {
			pos = 0
			for _, seg := range view {
				copy(out.bytes[seg.Off:seg.End()], data.Slice(pos, seg.Len).Bytes())
				pos += seg.Len
			}
		} else if c.Rank() == 0 {
			file := buffer.NewReal(wl.TotalBytes())
			f.ReadAt(c.Proc(), c.WorldRank(0), 0, file)
			copy(out.bytes, file.Bytes())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.stats = e.Stats()
	return out
}

// TestIdleRoundsStandLikePerRound holds the standing path — a rank
// parks once at the barriers of the rounds it sits out — to every rank
// taking every barrier on its own: every strategy × {write, read} on a
// scarce-buffer IOR of two nodes × sixteen ranks (128–256 rounds), with
// real bytes. The result, Scheduled and the bytes moved are equal, and
// the bytes are the ranks' patterns. It is also the park census, which
// -v prints, and holds each strategy to its share of the per-round
// parks: 40 % for the flat ones, whose every rank leads only itself
// (they read 19–33 %), and 45 % for the two-layer ones, whose write
// leaders receive a bundle from every mate every round and so cannot
// stand (they read 24–40 %). With fewer ranks per aggregator the bounds
// are out of reach: an aggregator works every round (barrier, exchange,
// assembly, I/O), and at four ranks per node its parks alone are half
// of what the per-round path pays.
func TestIdleRoundsStandLikePerRound(t *testing.T) {
	const (
		nodes, perNode = 2, 16
		mem            = 32 << 10
		seed           = 5
	)
	wl := workload.IOR{Ranks: nodes * perNode, BlockSize: 32 << 10, Segments: 16, TransferSize: 32 << 10}
	fc := bench.TestbedFS(seed)
	mc := bench.TestbedMachine(nodes, mem, bench.SigmaBytes, seed)
	mc.CoresPerNode = perNode
	opts := bench.MCCIOOptions(mc, fc, wl.TotalBytes(), mem)
	opts2L := opts
	opts2L.TwoLayer = true
	want := make([]byte, wl.TotalBytes())
	for r := 0; r < wl.NumRanks(); r++ {
		for _, seg := range wl.View(r) {
			for off := seg.Off; off < seg.End(); off++ {
				want[off] = buffer.Pattern(uint64(r), off)
			}
		}
	}
	for _, st := range []struct {
		name  string
		s     iolib.Collective
		bound uint64 // % of the per-round path's parks
	}{
		{"two-phase", collio.TwoPhase{CBBuffer: mem}, 40},
		{"mccio", core.MCCIO{Opts: opts}, 40},
		{"two-layer", twolayer.Strategy{CBBuffer: mem}, 45},
		{"mccio-2l", core.MCCIO{Opts: opts2L}, 45},
	} {
		for _, op := range []string{"write", "read"} {
			key := fmt.Sprintf("%s/%s", st.name, op)
			var per standRun
			collio.PerRound(func() { per = runVerified(t, st.s, op, mc, fc, wl) })
			got := runVerified(t, st.s, op, mc, fc, wl)
			t.Logf("%-16s %3d rounds: parks %6d -> %6d, dispatches %6d -> %6d, scheduled %d",
				key, per.res.Rounds, per.stats.Parks, got.stats.Parks, per.stats.Dispatches, got.stats.Dispatches, got.stats.Scheduled)
			if !reflect.DeepEqual(got.res, per.res) {
				t.Errorf("%s: result\n%+v\nper round\n%+v", key, got.res, per.res)
			}
			if got.stats.Scheduled != per.stats.Scheduled {
				t.Errorf("%s: %d events scheduled, per round %d", key, got.stats.Scheduled, per.stats.Scheduled)
			}
			if !bytes.Equal(per.bytes, want) || !bytes.Equal(got.bytes, want) {
				t.Errorf("%s: the bytes moved are not the ranks' patterns (per round: %v, standing: %v)",
					key, bytes.Equal(per.bytes, want), bytes.Equal(got.bytes, want))
			}
			if per.res.Rounds < 8 {
				t.Errorf("%s: %d rounds: the buffer is not scarce enough to sit rounds out", key, per.res.Rounds)
			}
			if got.stats.Parks*100 > per.stats.Parks*st.bound {
				t.Errorf("%s: %d parks, over %d %% of the per-round path's %d", key, got.stats.Parks, st.bound, per.stats.Parks)
			}
		}
	}
}
