package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call (the program itself is not instrumented).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Rank     int    `json:"rank"` // -1 for the benchmark's own goroutine
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (tr *tracer) begin(name string, parent, rep, rank int) int {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: parent, Name: name, Workload: tr.workload,
		Rep: rep, Rank: rank, StartNs: now,
	})
	return len(tr.spans)
}

// end closes the span id opened by begin.
func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id-1].EndNs = now
	tr.mu.Unlock()
}

// selfTime is one layer's row of the self-time report.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	SelfS float64 `json:"self_s"`
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its child spans on the same goroutine cover
// (those run one after another, so their durations add; children on other
// goroutines run concurrently with the parent and are not subtracted).
func (tr *tracer) selfTimes() []selfTime {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := make([]int64, len(tr.spans)+1)
	for _, s := range tr.spans {
		if s.Parent > 0 && tr.spans[s.Parent-1].Rank == s.Rank {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	rows := map[string]*selfTime{}
	for _, s := range tr.spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfTime{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.SelfS += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e9
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b selfTime) int {
		if c := cmp.Compare(b.SelfS, a.SelfS); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
	return out
}

// printSelfTimes writes the self-time table.
func printSelfTimes(w io.Writer, rows []selfTime) {
	fmt.Fprintf(w, "%-28s %8s %12s\n", "span (wall)", "count", "self s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.6f\n", r.Name, r.Count, r.SelfS)
	}
}

// writeFile writes the spans, the self-time table and the run metadata as
// one JSON document.
func (tr *tracer) writeFile(path string, meta any) error {
	rows := tr.selfTimes()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	doc := struct {
		Meta  any        `json:"meta"`
		Self  []selfTime `json:"self_times"`
		Spans []span     `json:"spans"`
	}{meta, rows, tr.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
