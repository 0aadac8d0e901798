package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pland"
)

// startDaemon serves an in-process daemon on a loopback port and
// returns its base URL; cleanup drains it.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv, err := pland.New(pland.Config{Registry: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return "http://" + srv.Addr()
}

// TestLoadAndTop drives the daemon with `load` — one URL, then the same
// URL twice as a two-entry list, which adds the per-shard breakdown —
// and draws one `top` frame of what it served.
func TestLoadAndTop(t *testing.T) {
	url := startDaemon(t)
	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out, errb strings.Builder
	if code := run([]string{"load", "-url", url, "-n", "40", "-c", "2", "-keys", "4", "-sim-every", "20", "-json", jsonPath}, &out, &errb); code != 0 {
		t.Fatalf("load: exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"requests    40 (0 errors", "status      200=40", "plan cache ", "simulations 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("load output lacks %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "errors", "hits", "coalesced", "hit_rate", "throughput_rps", "p99_ms", "status_counts", "forwarded"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("load -json lacks %q: %s", key, raw)
		}
	}
	if _, ok := rep["shards"]; ok {
		t.Errorf("load -json against one URL has a shard breakdown: %s", raw)
	}

	out.Reset()
	if code := run([]string{"load", "-url", url + ", " + url, "-n", "8", "-keys", "4"}, &out, &errb); code != 0 {
		t.Fatalf("load of a URL list: exit %d: %s", code, errb.String())
	}
	if got := strings.Count(out.String(), "  shard "+url); got != 2 {
		t.Errorf("load of two URLs prints %d shard rows, want 2:\n%s", got, out.String())
	}

	out.Reset()
	if code := run([]string{"top", "-url", url, "-once"}, &out, &errb); code != 0 {
		t.Fatalf("top: exit %d: %s", code, errb.String())
	}
	if out.Len() == 0 || strings.Contains(out.String(), "\x1b[") {
		t.Errorf("top -once drew no plain frame:\n%q", out.String())
	}
}

// TestUsageErrors: an unknown subcommand or flag exits 2 with a
// diagnostic; a client without a usable URL exits 1.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"frobnicate"},
		{"loadgen"},
		{"-no-such-flag"},
		{"load", "-urls", "http://127.0.0.1:1"},
		{"top", "-no-such-flag"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 || errb.Len() == 0 {
			t.Errorf("run(%v) = %d, want 2 with a diagnostic (stderr: %s)", args, code, errb.String())
		}
	}
	for _, args := range [][]string{
		{"load", "-url", " , "},
		{"top", "-url", ","},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 1 || errb.Len() == 0 {
			t.Errorf("run(%v) = %d, want 1 with a diagnostic (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestSplitList: the one list rule of -url and -peers.
func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":            nil,
		" , ":         nil,
		"http://a":    {"http://a"},
		"http://a, b": {"http://a", "b"},
		"a,,b,":       {"a", "b"},
	} {
		if got := splitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitList(%q) = %q, want %q", in, got, want)
		}
	}
}
