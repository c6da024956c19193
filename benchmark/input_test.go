package main

import (
	"testing"

	"fastppr/internal/graph"
)

// TestFeedCoversItsRun checks that the arrivals a workload takes are enough
// for the events it applies, and that the feed reconciles what it handed out.
func TestFeedCoversItsRun(t *testing.T) {
	for _, tc := range []struct {
		events int64
		round  int
	}{{480000, prRound}, {960, salsaRound}, {240, followRound}, {1, 64}, {100, 7}} {
		n := arrivalsFor(tc.events, tc.round)
		in := &paperInput{suffix: make([]graph.Edge, n)}
		for i := range in.suffix {
			in.suffix[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
		}
		feed := newEventFeed(in, 1, tc.round)
		var got int64
		for evs := feed.next(1000); len(evs) > 0; evs = feed.next(1000) {
			got += int64(len(evs))
		}
		if got < tc.events {
			t.Errorf("%d arrivals in rounds of %d give %d events, want at least %d", n, tc.round, got, tc.events)
		}
		if feed.Arrivals != int64(n) || feed.Arrivals+feed.Deletions != got {
			t.Errorf("feed counted %d arrivals and %d deletions of %d events from %d arrivals", feed.Arrivals, feed.Deletions, got, n)
		}
	}
}
