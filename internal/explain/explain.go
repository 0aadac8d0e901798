// Package explain is the planner decision-audit layer: it records
// *why* memory-conscious collective I/O made each of its decisions —
// how the workload was divided into aggregation groups, where every
// partition-tree bisection cut, which hosts were considered (and
// rejected, with their Mem_avl and the threshold that failed) when a
// file domain was remerged away, and which candidate won each
// aggregator placement with what headroom — plus per-aggregator memory
// timelines sampled from the cluster ledger at round boundaries.
//
// Where internal/obs answers "when did phases run and how long", this
// package answers "why does the plan look like this" and "how close did
// each aggregator come to its memory ceiling". The discipline matches
// obs/metrics/logx: a nil *Recorder disables collection, every method
// is nil-safe, and the disabled path performs no allocations, so the
// planner and the round engine stay unconditionally instrumented.
//
// The on-disk format is schema-versioned JSONL (one Event per line,
// first line a header record carrying Schema) with a
// truncation-tolerant parser, mirroring the obs trace format.
package explain

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/obs"
)

// Schema identifies the decision-log line format. Bump on incompatible
// changes; the parser rejects logs from a different major schema.
const Schema = "mccio-explain/1"

// Event kinds. Every line of a decision log carries exactly one.
const (
	// KindHeader is the first line of a log: schema identification.
	KindHeader = "header"
	// KindRun marks the start of one simulation run (one bench row or
	// one collective call sequence); Key labels it.
	KindRun = "run"
	// KindGroups is the group-division outcome: TotalBytes requested,
	// the Msggroup threshold used, and one GroupInfo per group.
	KindGroups = "groups"
	// KindTree is one group's partition-tree build outcome: root extent
	// [Lo, Hi), covered Data bytes, leaf count, and the effective
	// Msgind / MaxAggs the build worked from.
	KindTree = "tree"
	// KindBisect is one partition-tree bisection: vertex [Lo, Hi) with
	// Data covered bytes cut at Cut into LeftData/RightData halves.
	KindBisect = "bisect"
	// KindRemerge is one workload-portion remerge: leaf [Lo, Hi) left
	// the tree because no candidate host could offer Threshold bytes
	// (best offer BestShare on node Node); Candidates lists every host
	// considered with its Mem_avl, Variant names the takeover shape,
	// and [TakerLo, TakerHi) is the absorbing leaf after the merge.
	KindRemerge = "remerge"
	// KindPlace is one aggregator placement: leaf [Lo, Hi) went to
	// group rank Rank on Node with a Buf-byte buffer, leaving Headroom
	// uncommitted memory; RunnersUp lists the losing candidates and
	// Retry marks placements that fell back past the data-owning hosts.
	KindPlace = "place"
	// KindMemTL is one memory-timeline sample: at virtual time T, the
	// aggregator on Node observed Used bytes allocated (Peak high-water)
	// of Cap capacity at the boundary of Round.
	KindMemTL = "memtl"
	// KindLeader is one two-layer leader election: group rank Rank on
	// Node won the node's intra-node funnel with Score (Mem_avl minus
	// extent span) and Avail bytes available; RunnersUp lists the losing
	// mates with their Mem_avl and scores.
	KindLeader = "leader"
)

// Remerge variants (Fig 5a / 5b of the paper).
const (
	// VariantSibling is Fig 5a: the sibling is a leaf, the parent
	// becomes the merged domain.
	VariantSibling = "sibling-takeover"
	// VariantDFS is Fig 5b: the sibling is internal, a directional DFS
	// finds the adjacent leaf and the spine stretches over the region.
	VariantDFS = "dfs"
)

// GroupInfo is one aggregation group's boundary in a KindGroups event.
type GroupInfo struct {
	// First and Last bound the group's communicator ranks (inclusive).
	First int `json:"first"`
	Last  int `json:"last"`
	// Nodes is the physical nodes the group spans.
	Nodes int `json:"nodes"`
	// Bytes is the members' total requested data.
	Bytes int64 `json:"bytes"`
}

// Candidate is one host considered during a remerge or placement
// decision: the quantities the max-available-memory rule compared.
type Candidate struct {
	// Node is the physical node id.
	Node int `json:"node"`
	// Avail is the node's uncommitted aggregation memory (Mem_avl) at
	// decision time. Deliberately never omitted: an exhausted host's 0
	// is the whole point of the audit line.
	Avail int64 `json:"avail"`
	// Share is the per-slot budget the host could actually offer (its
	// Avail split over remaining aggregator slots).
	Share int64 `json:"share"`
	// Aggs is how many aggregators the host already carries.
	Aggs int `json:"aggs,omitempty"`
	// Rank is the candidate's comm rank (leader elections only, where
	// candidates are ranks sharing a node rather than hosts).
	Rank int `json:"rank,omitempty"`
}

// Event is one decision-log record. Fields beyond Kind/T/Group are
// kind-specific (see the Kind constants); unused numeric fields are
// omitted from the JSON and read back as zero, which round-trips
// losslessly.
type Event struct {
	// Kind discriminates the record (KindHeader .. KindMemTL).
	Kind string `json:"kind"`
	// T is the virtual-time stamp in seconds (0 outside a simulation).
	T float64 `json:"t"`
	// Group is the aggregation-group index, -1 when not applicable.
	Group int `json:"group"`

	// SchemaV carries Schema on KindHeader lines.
	SchemaV string `json:"schema,omitempty"`
	// Key labels KindRun records (a bench row key or workload name).
	Key string `json:"key,omitempty"`
	// Op is the collective operation ("write"/"read") on KindGroups.
	Op string `json:"op,omitempty"`

	// Lo, Hi, Data describe the file-domain extent a tree-shaped event
	// (KindTree/KindBisect/KindRemerge/KindPlace) refers to.
	Lo   int64 `json:"lo,omitempty"`
	Hi   int64 `json:"hi,omitempty"`
	Data int64 `json:"data,omitempty"`

	// KindGroups payload.
	TotalBytes int64       `json:"total_bytes,omitempty"`
	Msggroup   int64       `json:"msggroup,omitempty"`
	Groups     []GroupInfo `json:"groups,omitempty"`

	// KindTree payload.
	Leaves  int   `json:"leaves,omitempty"`
	Msgind  int64 `json:"msgind,omitempty"`
	MaxAggs int   `json:"max_aggs,omitempty"`

	// KindBisect payload.
	Cut       int64 `json:"cut,omitempty"`
	LeftData  int64 `json:"left_data,omitempty"`
	RightData int64 `json:"right_data,omitempty"`

	// KindRemerge payload. Reason is the human-readable one-liner;
	// Threshold is the Memmin that no candidate met; BestShare is the
	// best offer that still fell short; TakerLo/TakerHi bound the leaf
	// that absorbed the region.
	Variant    string      `json:"variant,omitempty"`
	Reason     string      `json:"reason,omitempty"`
	Threshold  int64       `json:"threshold,omitempty"`
	BestShare  int64       `json:"best_share,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	TakerLo    int64       `json:"taker_lo,omitempty"`
	TakerHi    int64       `json:"taker_hi,omitempty"`

	// KindPlace / KindMemTL payload. Node doubles as the winner's host
	// (place) and the sampled node (memtl).
	Node      int         `json:"node,omitempty"`
	Rank      int         `json:"rank,omitempty"`
	Buf       int64       `json:"buf,omitempty"`
	Avail     int64       `json:"avail,omitempty"`
	Headroom  int64       `json:"headroom,omitempty"`
	Retry     bool        `json:"retry,omitempty"`
	RunnersUp []Candidate `json:"runners_up,omitempty"`

	// KindMemTL payload.
	Round int   `json:"round,omitempty"`
	Used  int64 `json:"used,omitempty"`
	Peak  int64 `json:"peak,omitempty"`
	Cap   int64 `json:"cap,omitempty"`

	// KindLeader payload: the winner's election score (Mem_avl minus
	// extent span; RunnersUp carries the losers' via Candidate.Share).
	Score int64 `json:"score,omitempty"`
}

// Recorder accumulates decision events. The zero of the API is a nil
// *Recorder: every method returns immediately and allocates nothing,
// so the planner's instrumentation stays unconditional. The mutex
// makes recording safe from concurrently spawned simulation
// goroutines; the discrete-event engine's deterministic scheduling is
// what makes the recorded order reproducible.
type Recorder struct {
	mu     sync.Mutex
	clock  func() float64
	events []Event
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetClock installs the virtual-time source (typically
// simtime.Engine.Now). Events recorded before a clock is set are
// stamped 0. Nil-safe.
func (r *Recorder) SetClock(clock func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// Enabled reports whether events are being recorded. Call sites that
// must build slices or strings for an event (candidate lists, reason
// text) should guard on this so the disabled path stays allocation
// free; scalar-only records may call unconditionally.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one event, stamping T from the recorder's clock when
// the event carries no stamp of its own. Nil-safe.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if e.T == 0 && r.clock != nil {
		e.T = r.clock()
	}
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Run marks the start of one labelled run. Nil-safe; the label string
// must already exist at the call site (no formatting on this path).
func (r *Recorder) Run(key string) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: KindRun, Group: -1, Key: key})
}

// Bisect records one partition-tree cut. Scalar-only: safe to call
// unconditionally from the tree builder.
func (r *Recorder) Bisect(group int, lo, hi, data, cut, leftData int64) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: KindBisect, Group: group, Lo: lo, Hi: hi, Data: data,
		Cut: cut, LeftData: leftData, RightData: data - leftData})
}

// MemSample records one round-boundary ledger sample for a node.
// Scalar-only: safe to call unconditionally from the round engine.
func (r *Recorder) MemSample(node, round int, used, peak, capacity int64) {
	if r == nil {
		return
	}
	r.Record(Event{Kind: KindMemTL, Group: -1, Node: node, Round: round,
		Used: used, Peak: peak, Cap: capacity})
}

// Len returns the number of recorded events. Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a snapshot copy of the recorded events. Nil-safe.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Append bulk-appends events recorded elsewhere — the parallel bench
// harness records each hermetic row into its own recorder and folds
// them back in row order, which is what keeps the merged log
// byte-identical at any worker count. Nil-safe.
func (r *Recorder) Append(events []Event) {
	if r == nil || len(events) == 0 {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, events...)
	r.mu.Unlock()
}

// Reset discards all recorded events. Nil-safe.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// WriteJSONL serializes the recorded events, preceded by the schema
// header line. Nil-safe: a nil recorder writes just the header.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteJSONLEvents(w, r.Events())
}

// WriteJSONLEvents serializes a decision log: one header line carrying
// the schema version, then one line per event.
func WriteJSONLEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Event{Kind: KindHeader, Group: -1, SchemaV: Schema}); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseJSONL reconstructs a decision log. The header line is optional
// (its schema is verified when present); a truncated final line — a
// writer interrupted mid-record — is tolerated once at least one
// record parsed — the header counts — as obs.ScanJSONL reads every
// JSONL log. Garbage mid-stream is still an error.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	err := obs.ScanJSONL(r, "explain: jsonl line", func(line int, e *Event) error {
		switch e.Kind {
		case KindHeader:
			if e.SchemaV != Schema {
				return fmt.Errorf("explain: unsupported schema %q (want %q)", e.SchemaV, Schema)
			}
		case "":
			return fmt.Errorf("explain: jsonl line %d: record without kind", line)
		default:
			events = append(events, *e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return events, nil
}

// Summary is the decision-count rollup of a log — what mccio-inspect
// prints and GET /debug/explain returns.
type Summary struct {
	// Runs counts KindRun markers (0 for single-run logs without one).
	Runs int `json:"runs"`
	// Plans counts group-division events (one per collective planned).
	Plans int `json:"plans"`
	// Groups is the total aggregation groups formed across plans.
	Groups int `json:"groups"`
	// Bisections counts partition-tree cuts.
	Bisections int `json:"bisections"`
	// Remerges counts workload-portion remerges; the two variant
	// fields split it by takeover shape (Fig 5a vs 5b).
	Remerges       int `json:"remerges"`
	RemergeSibling int `json:"remerge_sibling"`
	RemergeDFS     int `json:"remerge_dfs"`
	// Placements counts aggregator placements; PlacementRetries the
	// ones that fell back past the data-owning hosts.
	Placements       int `json:"placements"`
	PlacementRetries int `json:"placement_retries"`
	// Leaders counts two-layer node-leader elections.
	Leaders int `json:"leaders"`
	// MemSamples counts round-boundary ledger samples.
	MemSamples int `json:"mem_samples"`
}

// Summarize folds a decision log into its counts.
func Summarize(events []Event) Summary {
	var s Summary
	for _, e := range events {
		switch e.Kind {
		case KindRun:
			s.Runs++
		case KindGroups:
			s.Plans++
			s.Groups += len(e.Groups)
		case KindBisect:
			s.Bisections++
		case KindRemerge:
			s.Remerges++
			switch e.Variant {
			case VariantSibling:
				s.RemergeSibling++
			case VariantDFS:
				s.RemergeDFS++
			}
		case KindPlace:
			s.Placements++
			if e.Retry {
				s.PlacementRetries++
			}
		case KindLeader:
			s.Leaders++
		case KindMemTL:
			s.MemSamples++
		}
	}
	return s
}

// WriteText renders the summary as the one-block count report.
func (s Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "decision audit: %d plan(s), %d group(s)\n", s.Plans, s.Groups)
	fmt.Fprintf(w, "  bisections:        %d\n", s.Bisections)
	fmt.Fprintf(w, "  remerges:          %d (%d sibling-takeover, %d dfs)\n",
		s.Remerges, s.RemergeSibling, s.RemergeDFS)
	fmt.Fprintf(w, "  placements:        %d (%d fell back past data-owning hosts)\n",
		s.Placements, s.PlacementRetries)
	if s.Leaders > 0 {
		fmt.Fprintf(w, "  leader elections:  %d\n", s.Leaders)
	}
	if s.MemSamples > 0 {
		fmt.Fprintf(w, "  memory samples:    %d\n", s.MemSamples)
	}
}
