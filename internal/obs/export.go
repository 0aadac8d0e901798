package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Chrome trace_event JSON (the JSON Object Format: {"traceEvents":
// [...]}) renders in Perfetto and chrome://tracing. Mapping:
//
//	pid  = node (one process group per physical node)
//	tid  = world rank (one thread track per rank)
//	ts   = virtual microseconds
//	"X"  = span (complete event with dur)
//	"i"  = instant, "C" = counter, "M" = track-name metadata
//
// Counter events use pid = node with a synthetic tid 0 and plot the
// node's ledger allocation over time.

// chromeEvent is one trace_event entry, for both writing and parsing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

const secToUS = 1e6

func locArgs(e Event) map[string]any {
	a := map[string]any{}
	if e.Loc.Group >= 0 {
		a["group"] = e.Loc.Group
	}
	if e.Loc.Round >= 0 {
		a["round"] = e.Loc.Round
	}
	if e.Bytes != 0 {
		a["bytes"] = e.Bytes
	}
	if e.Extra != 0 {
		a["extra"] = e.Extra
	}
	if e.ID != "" {
		a["id"] = e.ID
	}
	if len(a) == 0 {
		return nil
	}
	return a
}

// WriteChrome serializes the recorded events as Chrome trace_event
// JSON. Tracks are named (node N / rank R) via metadata events so
// Perfetto groups ranks under their node.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteChromeEvents(w, t.Events())
}

// WriteChromeEvents serializes an event slice as Chrome trace_event
// JSON.
func WriteChromeEvents(w io.Writer, events []Event) error {
	out := chromeFile{DisplayTimeUnit: "ms"}

	// Track-name metadata: one process per node, one thread per rank.
	nodes := map[int]bool{}
	ranks := map[[2]int]bool{}
	for _, e := range events {
		if e.Loc.Node >= 0 {
			nodes[e.Loc.Node] = true
		}
		if e.Loc.Rank >= 0 && e.Loc.Node >= 0 {
			ranks[[2]int{e.Loc.Node, e.Loc.Rank}] = true
		}
	}
	nodeIDs := make([]int, 0, len(nodes))
	for n := range nodes {
		nodeIDs = append(nodeIDs, n)
	}
	sort.Ints(nodeIDs)
	for _, n := range nodeIDs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: n,
			Args: map[string]any{"name": fmt.Sprintf("node%d", n)},
		})
	}
	rankIDs := make([][2]int, 0, len(ranks))
	for r := range ranks {
		rankIDs = append(rankIDs, r)
	}
	sort.Slice(rankIDs, func(i, j int) bool {
		if rankIDs[i][0] != rankIDs[j][0] {
			return rankIDs[i][0] < rankIDs[j][0]
		}
		return rankIDs[i][1] < rankIDs[j][1]
	})
	for _, r := range rankIDs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: r[0], Tid: r[1],
			Args: map[string]any{"name": fmt.Sprintf("rank%d", r[1])},
		})
	}

	for _, e := range events {
		ce := chromeEvent{
			Name: string(e.Phase),
			Cat:  e.Phase.Category(),
			TS:   e.T0 * secToUS,
			Pid:  e.Loc.Node,
			Tid:  e.Loc.Rank,
		}
		switch e.Kind {
		case KindSpan:
			ce.Ph = "X"
			ce.Dur = (e.T1 - e.T0) * secToUS
			ce.Args = locArgs(e)
		case KindInstant:
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = locArgs(e)
		case KindCounter:
			ce.Ph = "C"
			ce.Tid = 0
			ce.Args = map[string]any{"used": e.Bytes}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func argInt(a map[string]any, key string, def int64) int64 {
	v, ok := a[key]
	if !ok {
		return def
	}
	f, ok := v.(float64)
	if !ok {
		return def
	}
	return int64(f)
}

func argStr(a map[string]any, key string) string {
	s, _ := a[key].(string)
	return s
}

// ParseChrome reconstructs events from Chrome trace_event JSON
// produced by WriteChrome (metadata entries are skipped).
func ParseChrome(r io.Reader) ([]Event, error) {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	var events []Event
	for _, ce := range f.TraceEvents {
		loc := Loc{
			Rank:  ce.Tid,
			Node:  ce.Pid,
			Group: int(argInt(ce.Args, "group", -1)),
			Round: int(argInt(ce.Args, "round", -1)),
		}
		e := Event{
			Phase: Phase(ce.Name),
			T0:    ce.TS / secToUS,
			T1:    (ce.TS + ce.Dur) / secToUS,
			Loc:   loc,
			Bytes: argInt(ce.Args, "bytes", 0),
			Extra: argInt(ce.Args, "extra", 0),
			ID:    argStr(ce.Args, "id"),
		}
		switch ce.Ph {
		case "X":
			e.Kind = KindSpan
		case "i":
			e.Kind = KindInstant
		case "C":
			e.Kind = KindCounter
			e.Loc.Rank = -1
			e.Bytes = argInt(ce.Args, "used", 0)
		default: // metadata and anything we did not write
			continue
		}
		events = append(events, e)
	}
	return events, nil
}

// jsonlEvent is the lossless line format: one event per line.
type jsonlEvent struct {
	Kind  string  `json:"kind"`
	Phase string  `json:"phase"`
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	Rank  int     `json:"rank"`
	Node  int     `json:"node"`
	Group int     `json:"group"`
	Round int     `json:"round"`
	Bytes int64   `json:"bytes,omitempty"`
	Extra int64   `json:"extra,omitempty"`
	ID    string  `json:"id,omitempty"`
}

// WriteJSONL serializes the recorded events as one JSON object per
// line — the scripting-friendly format (jq, pandas.read_json(lines)).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteJSONLEvents(w, t.Events())
}

// WriteJSONLEvents serializes an event slice as JSON lines.
func WriteJSONLEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		je := jsonlEvent{
			Kind: e.Kind.String(), Phase: string(e.Phase),
			T0: e.T0, T1: e.T1,
			Rank: e.Loc.Rank, Node: e.Loc.Node, Group: e.Loc.Group, Round: e.Loc.Round,
			Bytes: e.Bytes, Extra: e.Extra, ID: e.ID,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ScanJSONL is the tolerant JSON-lines reader behind every JSONL
// parser of the module (trace events, decision logs, request logs):
// each non-blank line of r, up to 16 MiB long, is unmarshalled into a
// fresh T and handed to each with its 1-based line number. A line that
// is not JSON is an error, "<prefix> <line>: <cause>" — except a
// truncated final line after at least one decoded line, the tail a
// writer interrupted mid-record (crash, full disk) leaves, which is
// dropped. An error from each ends the scan and is returned as is.
func ScanJSONL[T any](r io.Reader, prefix string, each func(line int, v *T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line, decoded := 0, 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(text, &v); err != nil {
			// Garbage mid-stream is still an error — the extra Scan
			// only consumes input on the error path.
			if !sc.Scan() && sc.Err() == nil && decoded > 0 {
				return nil
			}
			return fmt.Errorf("%s %d: %w", prefix, line, err)
		}
		decoded++
		if err := each(line, &v); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ParseJSONL reconstructs events from the JSONL format.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	err := ScanJSONL(r, "obs: jsonl line", func(line int, je *jsonlEvent) error {
		e := Event{
			Phase: Phase(je.Phase), T0: je.T0, T1: je.T1,
			Loc:   Loc{Rank: je.Rank, Node: je.Node, Group: je.Group, Round: je.Round},
			Bytes: je.Bytes, Extra: je.Extra, ID: je.ID,
		}
		switch je.Kind {
		case "span":
			e.Kind = KindSpan
		case "instant":
			e.Kind = KindInstant
		case "counter":
			e.Kind = KindCounter
		default:
			return fmt.Errorf("obs: jsonl line %d: unknown kind %q", line, je.Kind)
		}
		events = append(events, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return events, nil
}

// ParseAuto sniffs the format: a stream whose first object carries a
// "traceEvents" key is Chrome JSON, anything else is treated as JSONL.
func ParseAuto(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(512)
	if strings.Contains(string(head), "\"traceEvents\"") {
		return ParseChrome(br)
	}
	return ParseJSONL(br)
}
