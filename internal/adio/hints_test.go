package adio

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
	"repro/internal/pfs"
	"repro/internal/strategy"
)

func platform() (cluster.Config, pfs.Config) {
	return cluster.TestbedConfig(4), pfs.DefaultConfig()
}

func TestParseHintsBasics(t *testing.T) {
	h, err := ParseHints("collective=mccio, cb_buffer_size=1048576,mccio_nah=2")
	if err != nil {
		t.Fatal(err)
	}
	if h["collective"] != "mccio" || h["cb_buffer_size"] != "1048576" || h["mccio_nah"] != "2" {
		t.Fatalf("%+v", h)
	}
	if h, err := ParseHints(""); err != nil || len(h) != 0 {
		t.Fatalf("empty hints: %v %v", h, err)
	}
}

func TestParseHintsRejects(t *testing.T) {
	bad := []string{
		"collective",              // no value
		"=x",                      // no key
		"no_such_key=1",           // unknown
		"mccio_nah=1,mccio_nah=2", // duplicate
	}
	for _, s := range bad {
		if _, err := ParseHints(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestBuildDefaultIsMCCIO(t *testing.T) {
	mcfg, fcfg := platform()
	s, err := Hints{}.BuildStrategy(mcfg, fcfg, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(core.MCCIO); !ok {
		t.Fatalf("default strategy %T", s)
	}
}

func TestBuildTwoPhaseWithBuffer(t *testing.T) {
	mcfg, fcfg := platform()
	h, _ := ParseHints("collective=two_phase,cb_buffer_size=4194304")
	s, err := h.BuildStrategy(mcfg, fcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp, ok := s.(collio.TwoPhase)
	if !ok || tp.CBBuffer != 4<<20 {
		t.Fatalf("%+v", s)
	}
}

// TestBuildCollectiveSpellings: the canonical names strategy.List()
// prints and the ROMIO-style underscore spellings select the same
// strategy; anything else is refused with the canonical list.
func TestBuildCollectiveSpellings(t *testing.T) {
	mcfg, fcfg := platform()
	for _, tc := range []struct{ collective, want string }{
		{"mccio", strategy.MCCIO},
		{"two-phase", strategy.TwoPhase},
		{"two_phase", strategy.TwoPhase},
		{"two-layer", strategy.TwoLayer},
		{"two_layer", strategy.TwoLayer},
		{"independent", strategy.Independent},
	} {
		h, err := ParseHints("collective=" + tc.collective)
		if err != nil {
			t.Fatal(err)
		}
		s, err := h.BuildStrategy(mcfg, fcfg, 1<<30)
		if err != nil {
			t.Errorf("collective=%s: %v", tc.collective, err)
			continue
		}
		if got := s.Name(); got != tc.want {
			t.Errorf("collective=%s built %q, want %q", tc.collective, got, tc.want)
		}
	}
	for _, bad := range []string{"three-phase", "twophase", "MCCIO"} {
		h, _ := ParseHints("collective=" + bad)
		_, err := h.BuildStrategy(mcfg, fcfg, 1<<30)
		if err == nil || !strings.Contains(err.Error(), strategy.List()) {
			t.Errorf("collective=%s: error %v does not list %q", bad, err, strategy.List())
		}
	}
	if !strings.Contains(knownKeys["collective"], strategy.List()) {
		t.Errorf("collective help %q does not list %q", knownKeys["collective"], strategy.List())
	}
}

func TestRomioCbWriteDisableSelectsIndependent(t *testing.T) {
	mcfg, fcfg := platform()
	h, _ := ParseHints("romio_cb_write=disable,ind_rd_buffer_size=65536")
	s, err := h.BuildStrategy(mcfg, fcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := s.(iolib.Naive)
	if !ok || n.Opts.BufSize != 65536 {
		t.Fatalf("%+v", s)
	}
}

func TestMccioOverrides(t *testing.T) {
	mcfg, fcfg := platform()
	h, _ := ParseHints("mccio_msgind=2097152,mccio_nah=2,mccio_memmin=524288,mccio_two_layer=true,mccio_no_groups=true")
	s, err := h.BuildStrategy(mcfg, fcfg, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	mc := s.(core.MCCIO)
	if mc.Opts.Msgind != 2<<20 || mc.Opts.Nah != 2 || mc.Opts.Memmin != 512<<10 {
		t.Fatalf("%+v", mc.Opts)
	}
	if !mc.Opts.TwoLayer || !mc.Opts.DisableGroups {
		t.Fatalf("%+v", mc.Opts)
	}
}

func TestMccioExplicitMsggroupNotClobbered(t *testing.T) {
	mcfg, fcfg := platform()
	h, _ := ParseHints("mccio_msggroup=12345678")
	s, err := h.BuildStrategy(mcfg, fcfg, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(core.MCCIO).Opts.Msggroup; got != 12345678 {
		t.Fatalf("msggroup %d", got)
	}
}

func TestBuildRejectsBadValues(t *testing.T) {
	mcfg, fcfg := platform()
	bad := []string{
		"cb_buffer_size=potato",
		"collective=two_phase,cb_buffer_size=-1",
		"mccio_two_layer=maybe",
		"mccio_node_combine=true", // removed key: unknown, not silently ignored
		"mccio_msgind=-5",
		"mccio_nah=0",
	}
	for _, s := range bad {
		h, err := ParseHints(s)
		if err != nil {
			continue // rejected at parse: also fine
		}
		if _, err := h.BuildStrategy(mcfg, fcfg, 1<<20); err == nil {
			t.Errorf("built strategy from %q", s)
		}
	}
}

func TestCalibrateHint(t *testing.T) {
	mcfg, fcfg := platform()
	h, _ := ParseHints("mccio_calibrate=true")
	s, err := h.BuildStrategy(mcfg, fcfg, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	mc := s.(core.MCCIO)
	if mc.Opts.Msgind <= 0 || mc.Opts.Nah < 1 {
		t.Fatalf("calibrated options invalid: %+v", mc.Opts)
	}
}

func TestKnownKeysDocumented(t *testing.T) {
	keys := KnownKeys()
	if len(keys) != len(knownKeys) {
		t.Fatalf("%d keys documented, want %d", len(keys), len(knownKeys))
	}
	joined := strings.Join(keys, "\n")
	for _, want := range []string{"cb_buffer_size", "mccio_nah", "romio_cb_write"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %s in %s", want, joined)
		}
	}
}

// FuzzParseHints feeds arbitrary hint strings through the parser and
// the strategy builder — the path `mccio-sim -hints` takes. The result
// is an error or a usable strategy, never a panic, whatever the keys
// and values say.
func FuzzParseHints(f *testing.F) {
	for _, s := range []string{
		"",
		"collective=mccio, cb_buffer_size=1048576,mccio_nah=2",
		"collective=two_phase,cb_buffer_size=4194304",
		"collective=two-layer",
		"collective=independent",
		"romio_cb_write=disable,ind_rd_buffer_size=65536",
		"mccio_msgind=2097152,mccio_nah=2,mccio_memmin=524288,mccio_two_layer=true,mccio_no_groups=true",
		"mccio_msggroup=12345678",
		"mccio_calibrate=true",
		"mccio_node_combine=true", // removed key
		"collective", "=x", "no_such_key=1", "mccio_nah=1,mccio_nah=2",
		"cb_buffer_size=potato", "collective=two_phase,cb_buffer_size=-1",
		"mccio_two_layer=maybe", "mccio_msgind=-5", "mccio_nah=0",
		"mccio_nah=9223372036854775807", "mccio_msggroup=-9223372036854775808",
	} {
		f.Add(s)
	}
	mcfg, fcfg := platform()
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ParseHints(in)
		if err != nil {
			if h != nil {
				t.Fatalf("ParseHints(%q) returned hints %v with error %v", in, h, err)
			}
			return
		}
		if _, removed := h["mccio_node_combine"]; removed {
			t.Fatalf("ParseHints(%q) accepted the removed key mccio_node_combine", in)
		}
		// Calibration is a simulation, not parsing: keep the fuzzer on
		// the parser.
		delete(h, "mccio_calibrate")
		s, err := h.BuildStrategy(mcfg, fcfg, 1<<30)
		if (err == nil) == (s == nil) {
			t.Fatalf("BuildStrategy(%q) = %v, %v: want exactly one", in, s, err)
		}
		if err == nil && !strategy.Valid(s.Name()) {
			t.Fatalf("BuildStrategy(%q) built %q, not a known strategy", in, s.Name())
		}
	})
}
