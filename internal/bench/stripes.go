package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
)

// Stripes sweeps the file system's stripe unit — the layout axis the
// paper's related work (resonant I/O, LACIO) optimizes against. MCCIO's
// stripe-aligned Msg_ind means its domains stay resonant with the
// layout as the unit changes; the baseline's offset-even domains do
// not.
func Stripes(o Options) (*Table, error) {
	o = o.withDefaults()
	const nodes = 10
	const mem = 8 * cluster.MiB
	wl := iorWorkload(120, o.Scale)
	t := &Table{
		Title:   "Stripe-unit sweep: IOR 120 procs, 8MB nominal buffer",
		Headers: []string{"stripe", "two-phase wr MB/s", "mccio wr MB/s", "gain", "fs requests (2p/mccio)"},
	}
	units := []int64{256 << 10, 1 << 20, 4 << 20}
	var rows []specRow
	for _, su := range units {
		fcfg := TestbedFS(o.Seed)
		fcfg.StripeUnit = su
		mccCfg := TestbedMachine(nodes, mem, SigmaBytes, o.Seed)
		mccOpts := MCCIOOptions(mccCfg, fcfg, wl.TotalBytes(), mem)
		for _, s := range []iolib.Collective{
			collio.TwoPhase{CBBuffer: mem},
			core.MCCIO{Opts: mccOpts},
		} {
			rows = append(rows, specRow{
				key:  fmt.Sprintf("stripes su=%s %s", mb(su), s.Name()),
				spec: Spec{Strategy: s, Op: "write", Machine: mccCfg, FS: fcfg, Workload: wl},
			})
		}
	}
	results, _, err := runSpecs(o, "stripes", rows)
	if err != nil {
		return nil, err
	}
	for si, su := range units {
		base, mcc := results[si*2], results[si*2+1]
		t.AddRow(mb(su),
			fmt.Sprintf("%.1f", base.BandwidthMBps()),
			fmt.Sprintf("%.1f", mcc.BandwidthMBps()),
			pct(mcc.BandwidthMBps(), base.BandwidthMBps()),
			fmt.Sprintf("%d / %d", base.IORequests, mcc.IORequests),
		)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("workload: %s", wl.Name()))
	return t, nil
}
