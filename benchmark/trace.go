package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, or one benchmark-level request (a
// batch, an event, a query) whose layer calls are its children. Start and End
// are offsets from the tracer's epoch; Parent is -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) finish(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Calls int64   `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by the union of its children's
// intervals, so overlapping children are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Calls++
		lt.Total += float64(dur) / 1e9
		lt.Self += float64(dur-covered(s, children[s.ID])) / 1e9
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// writeTrace writes the run's provenance, per-name self times and every span
// to path as one JSON document.
func writeTrace(path string, header map[string]any, layers map[string]layerTime, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	doc := map[string]any{"run": header, "layers": layers, "spans": spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
