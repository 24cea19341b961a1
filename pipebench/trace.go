package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
)

// Span names. Each one is recorded by the benchmark around a call into a
// layer, or through that layer's public hook when the call is composite.
const (
	spanSetup       = "setup"
	spanOp          = "op"
	spanCheck       = "check"
	spanTracegen    = "tracegen.gen"
	spanStage1      = "core.stage1"
	spanStage2      = "core.stage2"
	spanLowerBound  = "core.lowerbound"
	spanVerify      = "core.verify"
	spanIncremental = "dynamic.incremental"
	spanFingerprint = "dynamic.fingerprint"
	spanPlan        = "deploy.plan"
	spanApply       = "deploy.apply"
	spanEncode      = "deploy.journal.encode"
	spanFsync       = "deploy.journal.fsync"
	spanCompact     = "deploy.journal.compact"
	spanStep        = "elastic.step"
)

// opTreeSpans are the spans that nest under an op root; the traced run
// reports each one's self time per op, so the self times add up to the
// mean traced op time.
var opTreeSpans = []string{
	spanOp, spanIncremental, spanStage1, spanStage2, spanPlan, spanApply,
	spanEncode, spanFsync, spanCompact, spanStep,
}

// Span is one timed interval. Times are nanoseconds since the run
// started; Parent is the index of the enclosing span (-1 for a root), and
// Trace groups the spans of one setup, op or check (an op and the check of
// its output share a trace ID).
type Span struct {
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory for one single-goroutine run. A disabled
// tracer (the end-to-end run, or an untraced pass of a traced run) records
// nothing, and every method on it returns at once.
type tracer struct {
	origin  time.Time
	enabled bool
	trace   int64
	spans   []Span
	stack   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// root opens a root span under a new trace ID when id < 0, or under the
// given ID.
func (t *tracer) root(name string, id int64) int {
	if t == nil || !t.enabled {
		return -1
	}
	if id < 0 {
		t.trace++
		id = t.trace
	}
	t.stack = t.stack[:0]
	t.spans = append(t.spans, Span{Trace: id, Name: name, Start: t.now(), End: -1, Parent: -1})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// begin opens a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil || !t.enabled || len(t.stack) == 0 {
		return -1
	}
	parent := t.stack[len(t.stack)-1]
	t.spans = append(t.spans, Span{Trace: t.spans[parent].Trace, Name: name, Start: t.now(), End: -1, Parent: parent})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i and any span opened inside it that is still open (a
// layer that failed before its done hook fired).
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := t.now()
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if t.spans[top].End < 0 {
			t.spans[top].End = now
		}
		if top == i {
			return
		}
	}
}

// endAtLastChild closes span i at the end of its last child, or at its
// own start when it has none — for a layer whose only observable exit is
// the last hook it fires.
func (t *tracer) endAtLastChild(i int) {
	if t == nil || i < 0 {
		return
	}
	end := t.spans[i].Start
	for _, s := range t.spans[i+1:] {
		if s.Parent == i && s.End > end {
			end = s.End
		}
	}
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if top == i {
			break
		}
	}
	t.spans[i].End = end
}

// completed records a finished child of the innermost open span from a
// hook that reports only a duration after the fact.
func (t *tracer) completed(name string, d time.Duration) {
	if i := t.begin(name); i >= 0 {
		t.spans[i].End = t.now()
		t.spans[i].Start = t.spans[i].End - int64(d)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// observer adapts the tracer to core.Observer: the solver's stage start
// and done callbacks become core.* spans.
func (t *tracer) observer() core.Observer { return stageObserver{t} }

type stageObserver struct{ t *tracer }

var stageSpans = map[string]string{
	core.StageSelect:     spanStage1,
	core.StagePack:       spanStage2,
	core.StageLowerBound: spanLowerBound,
}

func (o stageObserver) OnStageStart(stage string, _ int64) {
	if name, ok := stageSpans[stage]; ok {
		o.t.begin(name)
	}
}

func (o stageObserver) OnStageDone(stage string, _ time.Duration) {
	name, ok := stageSpans[stage]
	t := o.t
	if !ok || !t.enabled || len(t.stack) == 0 {
		return
	}
	if top := t.stack[len(t.stack)-1]; t.spans[top].Name == name {
		t.end(top)
	}
}

func (stageObserver) OnProgress(string, int64, int64) {}
func (stageObserver) OnEpoch(int, int)                {}

// spanStats aggregates the recorded spans per name.
type spanStats struct {
	calls map[string][]float64 // each call's duration, ms
	self  map[string]float64   // total self time, ms
}

// summarize computes the duration and self time of every span with
// keep[i] set. Self time is the duration minus the union of the intervals
// the span's children cover.
func summarize(spans []Span, keep []bool) spanStats {
	st := spanStats{calls: map[string][]float64{}, self: map[string]float64{}}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		if !keep[i] {
			continue
		}
		d := float64(s.End-s.Start) / 1e6
		st.calls[s.Name] = append(st.calls[s.Name], d)
		st.self[s.Name] += d - float64(covered(spans, children[i]))/1e6
	}
	return st
}

// covered returns the nanoseconds the union of the given spans covers.
func covered(spans []Span, idx []int) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{spans[i].Start, spans[i].End}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
