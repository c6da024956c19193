package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestCountEdges(t *testing.T) {
	g := New(0)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	if got := g.CountEdges(1, 2); got != 2 {
		t.Fatalf("CountEdges(1,2)=%d want 2", got)
	}
	if got := g.CountEdges(1, 3); got != 1 {
		t.Fatalf("CountEdges(1,3)=%d want 1", got)
	}
	if got := g.CountEdges(1, 4); got != 0 {
		t.Fatalf("CountEdges(1,4)=%d want 0", got)
	}
	if got := g.CountEdges(9, 1); got != 0 {
		t.Fatalf("CountEdges of unknown source = %d want 0", got)
	}
	g.RemoveEdge(1, 2)
	if got := g.CountEdges(1, 2); got != 1 {
		t.Fatalf("CountEdges(1,2) after removal = %d want 1", got)
	}
}

func TestWindowFIFO(t *testing.T) {
	w := NewWindow(3)
	if w.Cap() != 3 || w.Len() != 0 {
		t.Fatalf("fresh window Cap=%d Len=%d", w.Cap(), w.Len())
	}
	for i := 0; i < 3; i++ {
		if _, ev := w.Push(Edge{From: NodeID(i), To: NodeID(i + 1)}); ev {
			t.Fatalf("push %d evicted before capacity", i)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("Len=%d want 3", w.Len())
	}
	// Each further push slides out the oldest arrival, in order.
	for i := 3; i < 10; i++ {
		old, ev := w.Push(Edge{From: NodeID(i), To: NodeID(i + 1)})
		if !ev {
			t.Fatalf("push %d did not evict at capacity", i)
		}
		want := Edge{From: NodeID(i - 3), To: NodeID(i - 2)}
		if old != want {
			t.Fatalf("push %d expired %v want %v", i, old, want)
		}
	}
	want := []Edge{{From: 7, To: 8}, {From: 8, To: 9}, {From: 9, To: 10}}
	if got := w.Edges(); !slices.Equal(got, want) {
		t.Fatalf("Edges=%v want %v", got, want)
	}
}

func TestWindowCapacityOne(t *testing.T) {
	w := NewWindow(1)
	if _, ev := w.Push(Edge{From: 1, To: 2}); ev {
		t.Fatal("first push evicted")
	}
	old, ev := w.Push(Edge{From: 2, To: 3})
	if !ev || old != (Edge{From: 1, To: 2}) {
		t.Fatalf("second push expired %v evicted=%v", old, ev)
	}
}

// replayWindow applies events to an empty graph over n nodes, failing the
// test at the first deletion of an edge the graph does not hold — that is, a
// deletion that precedes its arrival.
func replayWindow(t *testing.T, n int, events []Event) *Graph {
	t.Helper()
	g := New(n)
	for i, ev := range events {
		if !ev.Del {
			g.AddEdge(ev.Edge.From, ev.Edge.To)
			continue
		}
		if !g.RemoveEdge(ev.Edge.From, ev.Edge.To) {
			t.Fatalf("event %d deletes %v before its arrival", i, ev.Edge)
		}
	}
	return g
}

func windowStream(n, m int) []Edge {
	rng := rand.New(rand.NewPCG(3, 4))
	stream := make([]Edge, m)
	for i := range stream {
		// A small node space, so the stream repeats edges and the window
		// holds multi-edges.
		stream[i] = Edge{From: NodeID(rng.IntN(n)), To: NodeID(rng.IntN(n))}
	}
	return stream
}

// TestWindowEventsHoldsExactlyTheWindow replays a window's events: the graph
// must hold exactly the last capacity arrivals, as a multiset, and every
// arrival must precede its own deletion.
func TestWindowEventsHoldsExactlyTheWindow(t *testing.T) {
	const n, m, capacity = 8, 500, 60
	stream := windowStream(n, m)
	events := WindowEvents(stream, capacity)
	if got, want := len(events), 2*m-capacity; got != want {
		t.Fatalf("%d events, want %d arrivals and %d expiries", got, m, m-capacity)
	}
	g := replayWindow(t, n, events)
	if got := g.NumEdges(); got != capacity {
		t.Fatalf("graph holds %d edges, want the window's %d", got, capacity)
	}
	want := map[Edge]int{}
	for _, e := range stream[m-capacity:] {
		want[e]++
	}
	for e, k := range want {
		if got := g.CountEdges(e.From, e.To); got != k {
			t.Fatalf("edge %v multiplicity %d, want %d", e, got, k)
		}
	}
}

// TestWindowEventsUnderCapacity checks the no-expiry regime: a stream
// shorter than the window yields its arrivals and no deletion.
func TestWindowEventsUnderCapacity(t *testing.T) {
	stream := windowStream(8, 100)
	events := WindowEvents(stream, 500)
	if len(events) != len(stream) {
		t.Fatalf("%d events for %d arrivals", len(events), len(stream))
	}
	for i, ev := range events {
		if ev.Del || ev.Edge != stream[i] {
			t.Fatalf("event %d is %+v, want the arrival %v", i, ev, stream[i])
		}
	}
	if got := replayWindow(t, 8, events).NumEdges(); got != len(stream) {
		t.Fatalf("graph holds %d edges, want all %d streamed", got, len(stream))
	}
}
