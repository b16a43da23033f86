package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// noSpan is the id begin returns while tracing is off; end ignores it.
const noSpan = -1

// span is one timed interval at a layer boundary. Parent is the span that
// caused it (noSpan for an op's root); Op numbers the tick / cycle /
// simulated hour it belongs to, so spans of one operation share an id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory. The driver goroutine switches it on and
// off per op; decorators running on the program's own worker goroutines
// (the syncer's complex-plan pool) record through it concurrently.
type tracer struct {
	on    atomic.Bool
	stage atomic.Int64 // innermost open driver span: the parent of decorator spans
	t0    time.Time

	mu    sync.Mutex
	spans []span
	op    int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.stage.Store(noSpan)
	return t
}

// beginOp starts a new operation and switches recording on or off for it.
func (t *tracer) beginOp(traced bool) {
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	t.stage.Store(noSpan)
	t.on.Store(traced)
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: t.op})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// beginStage opens a driver-goroutine span and makes it the parent of
// every decorator span until the returned function closes it.
func (t *tracer) beginStage(name string) func() {
	parent := int(t.stage.Load())
	id := t.begin(name, parent)
	if id == noSpan {
		return func() {}
	}
	t.stage.Store(int64(id))
	return func() {
		t.end(id)
		t.stage.Store(int64(parent))
	}
}

// beginChild opens a span under the current driver stage, from any
// goroutine.
func (t *tracer) beginChild(name string) int {
	return t.begin(name, int(t.stage.Load()))
}

// selfTimes returns, per span name, the self time in ms of each traced
// op: the wall time the name's spans cover minus the part their direct
// children cover. Spans of one name may run concurrently (the syncer's
// complex-plan pool), so both covers are unions of intervals — the names
// of one op then add up to its wall time, not to its busy time. Ops in
// which a name recorded nothing contribute 0, so a median over the slice
// is a per-op median.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()

	type key struct {
		op   int
		name string
	}
	own := make(map[key][]interval)
	kids := make(map[key][]interval)
	opIndex := make(map[int]int)
	for _, s := range spans {
		if _, ok := opIndex[s.Op]; !ok {
			opIndex[s.Op] = len(opIndex)
		}
		own[key{s.Op, s.Name}] = append(own[key{s.Op, s.Name}], interval{s.Start, s.End})
		if s.Parent != noSpan {
			p := spans[s.Parent]
			kids[key{p.Op, p.Name}] = append(kids[key{p.Op, p.Name}], interval{s.Start, s.End})
		}
	}
	byName := make(map[string][]float64)
	for k, ivs := range own {
		vs := byName[k.name]
		if vs == nil {
			vs = make([]float64, len(opIndex))
			byName[k.name] = vs
		}
		vs[opIndex[k.op]] = float64(unionLen(ivs)-unionLen(kids[k])) / 1e6
	}
	return byName
}

type interval struct{ lo, hi int64 }

// unionLen is the total length of the union of the intervals.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// writeFile dumps every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
