package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory: one span per call into a
// layer, keyed by the job it served, with the span that caused it as
// parent. A nil *tracer records nothing, which is how the untraced paths
// share the code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	job        string
	parent     int // index into spans, -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, job: job, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// closed returns the spans that ended.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span name's total and self time: a span's self time is its
// duration minus the part of it that its children cover.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		a := agg[s.name]
		if a == nil {
			a = &selfTime{name: s.name}
			agg[s.name] = a
		}
		a.count++
		a.total += s.end - s.start
		a.self += s.end - s.start - covered(s, children[i])
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cur := parent.start
	for _, k := range kids {
		lo, hi := max(k.start, cur), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (one track per
// job), the format raxml-go -trace writes, so both open side by side in
// Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	spans := t.closed()
	tids := map[string]int{}
	var events []event
	for _, s := range spans {
		tid, ok := tids[s.job]
		if !ok {
			tid = len(tids) + 1
			tids[s.job] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.job}})
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSelfTimes(w io.Writer, st []selfTime) {
	fmt.Fprintf(w, "%-22s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range st {
		fmt.Fprintf(w, "%-22s %6d %12.3f %12.3f\n", s.name, s.count, ms(s.total), ms(s.self))
	}
}
