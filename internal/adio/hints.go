// Package adio is the hint-driven front door to the collective I/O
// strategies, modelled on ROMIO's ADIO layer: applications tune
// collective I/O through MPI_Info-style string hints rather than
// concrete types. The subset understood here covers ROMIO's classic
// collective-buffering hints plus the mccio_* extensions.
//
//	h, _ := adio.ParseHints("collective=mccio,cb_buffer_size=8388608,mccio_nah=2")
//	strategy, _ := h.BuildStrategy(machineCfg, fsCfg, workloadBytes)
package adio

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/pfs"
	"repro/internal/strategy"
	"repro/internal/twolayer"
)

// Hints is a set of MPI_Info-style key/value tuning strings.
type Hints map[string]string

// Recognized keys and their meaning.
var knownKeys = map[string]string{
	"collective":         "strategy selector: " + strategy.List() + " (default mccio; two_phase, two_layer also accepted)",
	"cb_buffer_size":     "collective buffer per aggregator in bytes (ROMIO key)",
	"romio_cb_write":     "enable | disable: disable selects independent I/O (ROMIO key)",
	"ind_rd_buffer_size": "data-sieving buffer for independent I/O in bytes (ROMIO key)",
	"mccio_msgind":       "per-aggregator optimal message size in bytes",
	"mccio_msggroup":     "aggregation-group data volume in bytes (0 = one group)",
	"mccio_nah":          "max aggregators per node",
	"mccio_memmin":       "minimum host memory to place an aggregator, bytes",
	"mccio_two_layer":    "true | false: full two-layer exchange (elected leaders) within each group",
	"mccio_calibrate":    "true | false: measure Msgind/Nah/Memmin/Msggroup on the platform first",
	"mccio_no_groups":    "true | false: ablation, disable group division",
	"mccio_no_mem_aware": "true | false: ablation, disable memory-aware placement",
	"mccio_no_remerge":   "true | false: ablation, disable remerging",
}

// KnownKeys returns the recognized hint keys with documentation, in
// sorted order, for help output.
func KnownKeys() []string {
	keys := make([]string, 0, len(knownKeys))
	for k := range knownKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s: %s", k, knownKeys[k])
	}
	return out
}

// ParseHints parses "k=v,k=v" (commas and/or whitespace separate
// tuples). Unknown keys are an error — silent typos in tuning knobs are
// the classic MPI_Info footgun.
func ParseHints(s string) (Hints, error) {
	h := Hints{}
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' })
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("adio: malformed hint %q (want key=value)", f)
		}
		if _, known := knownKeys[k]; !known {
			return nil, fmt.Errorf("adio: unknown hint %q", k)
		}
		if _, dup := h[k]; dup {
			return nil, fmt.Errorf("adio: duplicate hint %q", k)
		}
		h[k] = v
	}
	return h, nil
}

func (h Hints) getInt64(key string, def int64) (int64, error) {
	v, ok := h[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("adio: hint %s=%q is not an integer", key, v)
	}
	return n, nil
}

func (h Hints) getBool(key string) (bool, error) {
	v, ok := h[key]
	if !ok {
		return false, nil
	}
	switch v {
	case "true", "enable", "1", "yes":
		return true, nil
	case "false", "disable", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("adio: hint %s=%q is not a boolean", key, v)
}

// New is the one place a strategy name becomes a strategy: the
// canonical names of internal/strategy (the ROMIO-style spellings
// two_phase and two_layer are accepted too). opts are the MCCIO
// tunables, cb the collective buffer of the single-group strategies;
// each strategy takes what it needs and ignores the rest. Independent
// I/O comes with the default sieving options.
func New(name string, opts core.Options, cb int64) (iolib.Collective, error) {
	switch strings.ReplaceAll(name, "_", "-") {
	case strategy.MCCIO:
		return core.MCCIO{Opts: opts}, nil
	case strategy.TwoPhase:
		return collio.TwoPhase{CBBuffer: cb}, nil
	case strategy.TwoLayer:
		return twolayer.Strategy{CBBuffer: cb}, nil
	case strategy.Independent:
		return iolib.Naive{Opts: iolib.DefaultSieve()}, nil
	}
	return nil, fmt.Errorf("adio: unknown collective %q (want %s)", name, strategy.List())
}

// Inspect is New's offline counterpart: the plans the named strategy's
// live Plan executes for views on machine, from its comm-free planner
// fed by the machine (one availability snapshot per node, ranks
// block-wise on nodes; decisions go to machine.Explain()). mccio plans
// its groups (core.MCCIO.Inspect). two-phase and two-layer run
// PlanFromMeta and come back as one group whose record holds the plan,
// the coverage and the plan's election, with no tree or placements.
func Inspect(name string, opts core.Options, cb int64, machine *cluster.Machine, views []datatype.List) (*core.InspectResult, error) {
	s, err := New(name, opts, cb)
	if err != nil {
		return nil, err
	}
	if mc, ok := s.(core.MCCIO); ok {
		return mc.Inspect(machine, views)
	}
	n := len(views)
	if n == 0 || n > machine.NumRanks() {
		return nil, fmt.Errorf("adio: %d views for machine of %d ranks", n, machine.NumRanks())
	}
	exts, nodeOf, avail := make([]collio.Ext, n), make([]int, n), make([]int64, n)
	gp := core.GroupPlan{Group: core.Group{Last: n - 1}, NodeOfRank: nodeOf}
	for r, v := range views {
		lo, hi := v.Extent()
		exts[r] = collio.Ext{Lo: lo, Hi: hi}
		nodeOf[r] = machine.NodeOfRank(r)
		avail[r] = machine.Node(nodeOf[r]).Available()
		gp.Group.Bytes += v.TotalBytes()
	}
	gp.Group.Nodes = nodeOf[n-1] - nodeOf[0] + 1
	gp.Coverage = datatype.Normalize(slices.Concat(views...))
	switch s := s.(type) {
	case collio.TwoPhase:
		gp.Plan = s.PlanFromMeta(exts, nodeOf, avail)
	case twolayer.Strategy:
		var el *twolayer.Election
		if gp.Plan, el = s.PlanFromMeta(exts, nodeOf, avail); el != nil {
			gp.Leaders = el.Leaders
			el.Explain(machine.Explain(), 0)
		}
	default:
		return nil, fmt.Errorf("adio: strategy %s has no plan to inspect", s.Name())
	}
	return &core.InspectResult{Plans: []core.GroupPlan{gp}}, nil
}

// BuildStrategy resolves the hints into a concrete strategy for the
// given platform. totalBytes sizes group division when mccio_msggroup
// is not set explicitly. Two-layer composed into mccio rides the
// mccio_two_layer flag; collective=two-layer is the standalone
// strategy.
func (h Hints) BuildStrategy(mcfg cluster.Config, fcfg pfs.Config, totalBytes int64) (iolib.Collective, error) {
	kind := h["collective"]
	if kind == "" {
		kind = strategy.MCCIO
	}
	if cbw, err := h.getBool("romio_cb_write"); err != nil {
		return nil, err
	} else if _, set := h["romio_cb_write"]; set && !cbw {
		kind = strategy.Independent
	}
	// Resolve the name first (an unknown one fails here); what it
	// resolved to says which hints parameterise it.
	s, err := New(kind, core.Options{}, 0)
	if err != nil {
		return nil, err
	}
	switch s := s.(type) {
	case iolib.Naive:
		if s.Opts.BufSize, err = h.getInt64("ind_rd_buffer_size", s.Opts.BufSize); err != nil {
			return nil, err
		}
		return s, nil
	case core.MCCIO:
		opts, err := h.MCCIOOptions(mcfg, fcfg, totalBytes)
		if err != nil {
			return nil, err
		}
		return New(kind, opts, 0)
	}
	cb, err := h.getInt64("cb_buffer_size", 16<<20)
	if err != nil {
		return nil, err
	}
	if cb <= 0 {
		return nil, fmt.Errorf("adio: cb_buffer_size must be positive, got %d", cb)
	}
	return New(kind, core.Options{}, cb)
}

// MCCIOOptions resolves the MCCIO tunables: the platform's calibration
// (measured under mccio_calibrate, derived otherwise), group division
// sized from totalBytes, then every mccio_* override.
func (h Hints) MCCIOOptions(mcfg cluster.Config, fcfg pfs.Config, totalBytes int64) (core.Options, error) {
	var opts core.Options
	calibrate, err := h.getBool("mccio_calibrate")
	if err != nil {
		return opts, err
	}
	if calibrate {
		rep, err := core.Calibrate(mcfg, fcfg)
		if err != nil {
			return opts, err
		}
		opts = rep.Result
	} else {
		opts = core.DefaultOptions(mcfg, fcfg)
	}
	if totalBytes > 0 {
		groups := int64(mcfg.Nodes / 2)
		if groups < 1 {
			groups = 1
		}
		opts.Msggroup = totalBytes / groups
	}
	cb, err := h.getInt64("cb_buffer_size", 0)
	if err != nil {
		return opts, err
	}
	if cb > 0 {
		opts.Memmin = cb / 4
	}
	type i64 struct {
		key string
		dst *int64
	}
	for _, f := range []i64{
		{"mccio_msgind", &opts.Msgind},
		{"mccio_msggroup", &opts.Msggroup},
		{"mccio_memmin", &opts.Memmin},
	} {
		if *f.dst, err = h.getInt64(f.key, *f.dst); err != nil {
			return opts, err
		}
	}
	nah, err := h.getInt64("mccio_nah", int64(opts.Nah))
	if err != nil {
		return opts, err
	}
	opts.Nah = int(nah)
	type flags struct {
		key string
		dst *bool
	}
	for _, f := range []flags{
		{"mccio_two_layer", &opts.TwoLayer},
		{"mccio_no_groups", &opts.DisableGroups},
		{"mccio_no_mem_aware", &opts.DisableMemAware},
		{"mccio_no_remerge", &opts.DisableRemerge},
	} {
		v, err := h.getBool(f.key)
		if err != nil {
			return opts, err
		}
		if _, set := h[f.key]; set {
			*f.dst = v
		}
	}
	return opts, opts.Validate()
}
