package pland

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
)

// fingerprintVersion is hashed into every fingerprint so a change to
// the canonical encoding (new field, different order) invalidates old
// keys instead of silently colliding with them.
//
// v2: the strategy name (length-prefixed) and Options.TwoLayer joined
// the canonical form, so requests differing only in strategy can never
// share a cache entry.
const fingerprintVersion = "mccio-plan-fp/2"

// Fingerprint returns the canonical request key: a 128-bit hex digest
// over the canonical form's fields in a fixed order. Because it hashes
// the *canonicalized* request — defaults filled, options resolved,
// layouts normalized — semantically identical requests (reordered
// extents, split-but-contiguous runs, omitted-vs-spelled-out
// defaults) produce the same key, while any change that alters what
// the planner would see produces a different one.
func (c *canonRequest) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, fingerprintVersion)
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int64) { wu(uint64(v)) }
	wf := func(v float64) { wu(math.Float64bits(v)) }
	wb := func(v bool) {
		if v {
			wu(1)
		} else {
			wu(0)
		}
	}

	wi(int64(c.Cluster.Nodes))
	wi(int64(c.Cluster.CoresPerNode))
	wi(c.Cluster.MemPerNode)
	wf(c.Cluster.MemSigma)
	wi(c.Cluster.MemFloor)
	wf(c.Cluster.MemBusBW)
	wf(c.Cluster.MemBusLat)
	wf(c.Cluster.NICBW)
	wf(c.Cluster.NICLat)
	wf(c.Cluster.BisectionBW)
	wf(c.Cluster.BisectionLat)
	wf(c.Cluster.IONetBW)
	wf(c.Cluster.IONetLat)
	wu(c.Cluster.Seed)

	wi(int64(c.FS.OSTs))
	wi(c.FS.StripeUnit)
	wf(c.FS.OSTBW)
	wf(c.FS.OSTLatency)
	wf(c.FS.JitterMean)
	wu(c.FS.Seed)

	wi(c.Options.Msgind)
	wi(c.Options.Msggroup)
	wi(int64(c.Options.Nah))
	wi(c.Options.Memmin)
	wb(false) // core.Options.NodeCombine's slot: the field is gone, the byte keeps every v2 fingerprint stable
	wb(c.Options.TwoLayer)
	wb(c.Options.DisableGroups)
	wb(c.Options.DisableMemAware)
	wb(c.Options.DisableRemerge)

	// The strategy is part of the canonical form: a two-layer plan and
	// a two-phase plan for the same layout are different artifacts.
	// Length-prefixed so no strategy name can alias another's encoding.
	wi(int64(len(c.Strategy)))
	io.WriteString(h, c.Strategy)

	wi(int64(len(c.Views)))
	for _, v := range c.Views {
		wi(int64(len(v)))
		for _, s := range v {
			wi(s.Off)
			wi(s.Len)
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
