package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteJSON writes the one-shot JSON exposition: the registry snapshot
// as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// fmtVal renders a sample value the way Prometheus does: shortest
// round-trip float, "+Inf"/"-Inf"/"NaN" spelled out.
func fmtVal(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel merges one extra label pair into a rendered label key.
func withLabel(key, name, value string) string {
	extra := name + `="` + escapeLabel(value) + `"`
	if key == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(key, "}") + "," + extra + "}"
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4). A nil registry writes
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range f.sortedChildren() {
			switch inst := c.inst.(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, c.key, fmtVal(inst.Value()))
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, c.key, fmtVal(inst.Value()))
			case *Histogram:
				var cum int64
				for i, bound := range inst.bounds {
					cum += inst.counts[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, withLabel(c.key, "le", fmtVal(bound)), cum)
				}
				cum += inst.counts[len(inst.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, withLabel(c.key, "le", "+Inf"), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, c.key, fmtVal(inst.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, c.key, inst.Count())
			}
		}
	}
	return bw.Flush()
}

// Bucket is one histogram bucket in a snapshot: the upper bound and
// the non-cumulative count of samples that landed in it.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MarshalJSON renders the bound as a string so the +Inf bucket
// survives encoding/json (which rejects infinite floats).
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, fmtVal(b.UpperBound), b.Count)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	switch raw.Le {
	case "+Inf":
		b.UpperBound = math.Inf(1)
	case "-Inf":
		b.UpperBound = math.Inf(-1)
	default:
		v, err := strconv.ParseFloat(raw.Le, 64)
		if err != nil {
			return fmt.Errorf("metrics: bad bucket bound %q: %w", raw.Le, err)
		}
		b.UpperBound = v
	}
	return nil
}

// Sample is one instrument's state in a snapshot.
type Sample struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`             // counter/gauge value, histogram sum
	Count   int64             `json:"count,omitempty"`   // histogram only
	Buckets []Bucket          `json:"buckets,omitempty"` // histogram only
}

// Family is one metric family in a snapshot.
type Family struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Kind    string   `json:"kind"`
	Samples []Sample `json:"samples"`
}

// Snapshot is a point-in-time copy of the whole registry — the
// one-shot JSON exposition path and the payload embedded in bench
// trajectory files.
type Snapshot struct {
	Families []Family `json:"families"`
}

// Get returns the value of the named counter or gauge sample whose
// labels all match want, and whether it was found.
func (s *Snapshot) Get(name string, want map[string]string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
	sample:
		for _, sm := range f.Samples {
			for k, v := range want {
				if sm.Labels[k] != v {
					continue sample
				}
			}
			return sm.Value, true
		}
	}
	return 0, false
}

// QuantileBuckets estimates the q-th quantile (0–1) from snapshot
// histogram buckets (non-cumulative counts, ascending bounds, +Inf
// last), with linear interpolation inside the owning bucket — the
// standard Prometheus estimate, usable on decoded /metrics.json
// payloads (mccio-pland top's latency panel). Returns
// 0 with no observations; values landing in the +Inf bucket report the
// highest finite bound.
func QuantileBuckets(buckets []Bucket, q float64) float64 {
	if len(buckets) == 0 || q < 0 || q > 1 {
		return 0
	}
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	highestFinite := func() float64 {
		for i := len(buckets) - 1; i >= 0; i-- {
			if !math.IsInf(buckets[i].UpperBound, 0) {
				return buckets[i].UpperBound
			}
		}
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, b := range buckets {
		if b.Count == 0 {
			continue
		}
		if float64(cum+b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				return highestFinite()
			}
			lo := 0.0
			if i > 0 {
				lo = buckets[i-1].UpperBound
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			return lo + (b.UpperBound-lo)*frac
		}
		cum += b.Count
	}
	return highestFinite()
}

// SumBuckets adds b into dst bucket-by-bucket and returns dst; when
// dst is empty it returns a copy of b. Bucket layouts must match (same
// family), which holds for samples of one histogram family — the merge
// mccio-pland top uses to fold per-endpoint latency series into one panel.
func SumBuckets(dst, b []Bucket) []Bucket {
	if len(dst) == 0 {
		return append([]Bucket(nil), b...)
	}
	if len(b) != len(dst) {
		return dst
	}
	for i := range dst {
		dst[i].Count += b[i].Count
	}
	return dst
}

// Snapshot copies the registry's current state. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	for _, f := range r.families() {
		fam := Family{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, c := range f.sortedChildren() {
			s := Sample{}
			if len(c.labels) > 0 {
				s.Labels = make(map[string]string, len(c.labels)/2)
				for i := 0; i < len(c.labels); i += 2 {
					s.Labels[c.labels[i]] = c.labels[i+1]
				}
			}
			switch inst := c.inst.(type) {
			case *Counter:
				s.Value = inst.Value()
			case *Gauge:
				s.Value = inst.Value()
			case *Histogram:
				s.Value = inst.Sum()
				s.Count = inst.Count()
				for i, bound := range inst.bounds {
					s.Buckets = append(s.Buckets, Bucket{UpperBound: bound, Count: inst.counts[i].Load()})
				}
				s.Buckets = append(s.Buckets, Bucket{UpperBound: math.Inf(1), Count: inst.counts[len(inst.bounds)].Load()})
			}
			fam.Samples = append(fam.Samples, s)
		}
		out.Families = append(out.Families, fam)
	}
	return out
}
