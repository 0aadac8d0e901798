package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/prof"
)

// span is one interval recorded by the benchmark around a call into a
// layer. Parent is the id of the span that caused it, -1 for a root;
// Key names the unit of work (pass/row, or request index), so the spans
// of one row or request share it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Key    string  `json:"key,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the timed passes share the traced pass's code
// without paying for it.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its id; -1 on a nil recorder.
func (r *spanRecorder) begin(name, key string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: now, End: now})
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (children may overlap each
// other, as concurrent requests under one slice do).
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary is the per-name rollup printed with the traced pass.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := make(map[string]*spanSummary)
	var order []string
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
			order = append(order, s.Name)
		}
		a.Count++
		a.TotalS += s.End - s.Start
		a.SelfS += self[i]
	}
	out := make([]spanSummary, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// layerOf buckets a profile's leaf frame by the layer that owns it: a
// package of this repo that works on a benchmark path, one of the
// standard-library stages of the request path (encoding/json together
// with the reflection and number parsing under it), the Go runtime
// (its assembly routines, which carry no package, included), the
// benchmark's own frames ("client"), or "other".
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "runtime" // memeqbody, aeshashbody, gcWriteBarrier, ...
	}
	pkg := fn[:slash+1+dot]
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range repoLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "main" || pkg == "repro/benchmarks":
		return "client"
	case pkg == "encoding/json" || pkg == "reflect" || pkg == "strconv" || strings.HasPrefix(pkg, "unicode/"):
		return "json"
	case strings.HasSuffix(pkg, "sha256"):
		return "sha256"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "syscall" ||
		pkg == "internal/poll" || pkg == "internal/runtime/syscall" || pkg == "bufio":
		return "nethttp"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/sync":
		return "runtime"
	}
	return "other"
}

// cpuShares decodes a runtime/pprof CPU profile and returns the share
// of flat samples per layer. An empty profile yields no shares.
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := prof.Parse(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	sites, err := p.Top("cpu", 0)
	if err != nil {
		return nil, err
	}
	flat := make(map[string]float64)
	var total float64
	for _, s := range sites {
		flat[layerOf(s.Func)] += float64(s.Flat)
		total += float64(s.Flat)
	}
	if total == 0 {
		return nil, nil
	}
	for l := range flat {
		flat[l] /= total
	}
	return flat, nil
}

// writeTrace stores the traced pass's spans and CPU profile in dir.
func writeTrace(dir string, spans []span, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans   []span        `json:"spans"`
		Summary []spanSummary `json:"summary"`
	}{spans, summarizeSpans(spans)})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), profile, 0o644)
}
