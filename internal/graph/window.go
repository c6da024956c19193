package graph

// Event is one mutation in a churn stream: an edge arrival or an edge
// deletion. Streams of Events are the input to the maintainers'
// ApplyEvents; WindowEvents builds one for a sliding window.
type Event struct {
	Edge Edge
	// Del marks the event as a deletion of one copy of Edge.
	Del bool
}

// Window is a fixed-capacity FIFO over edge arrivals, the bookkeeping behind
// sliding-window graphs where only the last T arrivals count. Push admits a
// new arrival and, once the window is full, yields the arrival that just
// slid out — the caller feeds it back through the deletion path. Window is a
// plain ring buffer with no locking: one driver owns it.
type Window struct {
	buf  []Edge
	head int // index of the oldest edge
	n    int // live edges, <= len(buf)
}

// NewWindow returns a window holding the last capacity arrivals
// (capacity >= 1).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		panic("graph: Window capacity must be >= 1")
	}
	return &Window{buf: make([]Edge, capacity)}
}

// Push admits e into the window. When the window was already full it returns
// the expired oldest arrival and evicted=true; the caller must delete that
// edge from the graph to keep the window invariant.
func (w *Window) Push(e Edge) (expired Edge, evicted bool) {
	if w.n == len(w.buf) {
		expired = w.buf[w.head]
		w.buf[w.head] = e
		w.head = (w.head + 1) % len(w.buf)
		return expired, true
	}
	w.buf[(w.head+w.n)%len(w.buf)] = e
	w.n++
	return Edge{}, false
}

// Len returns the number of arrivals currently in the window.
func (w *Window) Len() int { return w.n }

// Cap returns the window capacity T.
func (w *Window) Cap() int { return len(w.buf) }

// Edges returns the windowed arrivals oldest-first (a copy).
func (w *Window) Edges() []Edge {
	out := make([]Edge, 0, w.n)
	for i := 0; i < w.n; i++ {
		out = append(out, w.buf[(w.head+i)%len(w.buf)])
	}
	return out
}

// WindowEvents turns an arrival stream into the event stream of a sliding
// window of the given capacity (>= 1): each arrival, followed — once the
// window is full — by the deletion of the arrival it slides out. Replaying
// the events through a maintainer leaves the graph holding exactly the last
// min(capacity, len(stream)) arrivals on top of what it held before, and no
// deletion precedes the arrival it deletes.
func WindowEvents(stream []Edge, capacity int) []Event {
	win := NewWindow(capacity)
	events := make([]Event, 0, 2*len(stream)-min(capacity, len(stream)))
	for _, e := range stream {
		events = append(events, Event{Edge: e})
		if old, ok := win.Push(e); ok {
			events = append(events, Event{Edge: old, Del: true})
		}
	}
	return events
}
