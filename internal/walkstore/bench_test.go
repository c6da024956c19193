package walkstore

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"fastppr/internal/graph"
)

// BenchmarkAppendPendingPositions copies one (node, dir) bucket out of the
// store: a typical node's bucket of about 50 entries and a 100k-entry hub.
func BenchmarkAppendPendingPositions(b *testing.B) {
	for _, n := range []int{50, 100_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			const hub = graph.NodeID(7)
			paths := make([][]graph.NodeID, n)
			for i := range paths {
				paths[i] = []graph.NodeID{hub, graph.NodeID(1000 + i%1000)}
			}
			s := New()
			s.AddBatchSided(paths, SideForward)
			var hits []PosHit
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits = s.AppendPendingPositions(hits, hub, SideForward)
			}
			if len(hits) != n {
				b.Fatalf("%d hits, want %d", len(hits), n)
			}
		})
	}
}

// BenchmarkPosIndexMidInsertRemove inserts and removes one entry in the
// middle of a 100k-entry hub bucket, at a different place every iteration.
func BenchmarkPosIndexMidInsertRemove(b *testing.B) {
	const n = 100_000
	var px posIndex
	for i := 0; i < n; i++ {
		px.add(SegmentID(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := SegmentID(i * 7919 % n)
		px.add(seg, 1)
		px.remove(seg, 1)
	}
	if px.n != n {
		b.Fatalf("%d entries, want %d", px.n, n)
	}
}

// BenchmarkAddBatchSided bulk-loads 4096 alternating segments of six
// visits into a fresh store in bursts of 256, the way the walk engine
// flushes finished segments. Half the visits land on eight hubs, so hub
// buckets grow to about 1.5k entries each.
func BenchmarkAddBatchSided(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	paths := make([][]graph.NodeID, 4096)
	for i := range paths {
		p := make([]graph.NodeID, 6)
		for j := range p {
			if rng.IntN(2) == 0 {
				p[j] = graph.NodeID(rng.IntN(8))
			} else {
				p[j] = graph.NodeID(8 + rng.IntN(10_000))
			}
		}
		paths[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for lo := 0; lo < len(paths); lo += 256 {
			s.AddBatchSided(paths[lo:lo+256], Side(lo/256%2))
		}
	}
}
