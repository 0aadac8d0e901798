package bench

import (
	"testing"

	"repro/internal/collio"
)

// BenchmarkFig8BaselineWritePoint times the heaviest single simulation
// in the suite — the Figure 8 baseline write at 1080 ranks — as the
// simulator's host-performance canary (it drove the mailbox-tag and
// barrier optimizations recorded in DESIGN.md §7).
func BenchmarkFig8BaselineWritePoint(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 42}.withDefaults()
	wl := iorWorkload(1080, 0.25)
	fcfg := TestbedFS(o.Seed)
	mcfg := TestbedMachine(90, 8<<20, SigmaBytes, o.Seed)
	for i := 0; i < b.N; i++ {
		_, err := RunOnce(Spec{Strategy: collio.TwoPhase{CBBuffer: 8 << 20}, Op: "write", Machine: mcfg, FS: fcfg, Workload: wl})
		if err != nil {
			b.Fatal(err)
		}
	}
}
