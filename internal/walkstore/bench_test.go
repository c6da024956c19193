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

// salsaShapedPaths returns 4096 alternating segments of six visits over a
// 20k-node ID space, for AddBatchSided in bursts of 256 with the side
// flipping per burst, the way the SALSA bootstrap stores a chunk's forward
// and then its backward segments. Half the visits land on eight hubs, so
// hub buckets grow to about 1.5k entries each.
func salsaShapedPaths() [][]graph.NodeID {
	rng := rand.New(rand.NewPCG(1, 2))
	paths := make([][]graph.NodeID, 4096)
	for i := range paths {
		p := make([]graph.NodeID, 6)
		for j := range p {
			if rng.IntN(2) == 0 {
				p[j] = graph.NodeID(rng.IntN(8))
			} else {
				p[j] = graph.NodeID(8 + rng.IntN(20_000-8))
			}
		}
		paths[i] = p
	}
	return paths
}

// burstSide is the side of the burst of 256 that segment i belongs to.
func burstSide(i int) Side { return Side(i / 256 % 2) }

// BenchmarkAddBatchSided stores the SALSA-shaped input into a fresh store
// in bursts of 256, the way the bootstrap stored each chunk before it bulk
// loaded.
func BenchmarkAddBatchSided(b *testing.B) {
	paths := salsaShapedPaths()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for lo := 0; lo < len(paths); lo += 256 {
			s.AddBatchSided(paths[lo:lo+256], burstSide(lo))
		}
	}
}

// salsaShapedBatches is the SALSA-shaped input as Load batches, one per
// burst.
func salsaShapedBatches() []Batch {
	paths := salsaShapedPaths()
	batches := make([]Batch, len(paths)/256)
	for i, p := range paths {
		bt := &batches[i/256]
		start := len(bt.Nodes)
		bt.Nodes = append(bt.Nodes, p...)
		bt.EndSegment(start, burstSide(i))
	}
	return batches
}

// BenchmarkLoad bulk-loads the same input into a fresh store.
func BenchmarkLoad(b *testing.B) {
	batches := salsaShapedBatches()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New().Load(batches, workers)
			}
		})
	}
}

// loadedStore returns a fresh store holding the SALSA-shaped input.
func loadedStore() *Store {
	s := New()
	s.Load(salsaShapedBatches(), 1)
	return s
}

// BenchmarkReplaceTailBatch applies one repair phase's worth of tail
// mutations, 64 segments each cut to two nodes and given a fresh
// four-node tail, through one ReplaceTailBatch call. The arena is
// compacted off the clock every 256 calls so it stays small.
func BenchmarkReplaceTailBatch(b *testing.B) {
	s := loadedStore()
	rng := rand.New(rand.NewPCG(3, 4))
	muts := make([]TailMutation, 64)
	tails := make([]graph.NodeID, 4*len(muts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range muts {
			tail := tails[4*j : 4*j+4]
			for k := range tail {
				tail[k] = graph.NodeID(rng.IntN(20_000))
			}
			muts[j] = TailMutation{ID: SegmentID(rng.IntN(4096)), Keep: 2, NewTail: tail}
		}
		s.ReplaceTailBatch(muts)
		if i%256 == 255 {
			b.StopTimer()
			s.Compact()
			b.StartTimer()
		}
	}
}

// BenchmarkAppendPaths fetches 256 segment paths under one lock, the bulk
// read a repair phase makes after freezing its segment set.
func BenchmarkAppendPaths(b *testing.B) {
	s := loadedStore()
	ids := make([]SegmentID, 256)
	for i := range ids {
		ids[i] = SegmentID(i * 16)
	}
	var dst [][]graph.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.AppendPaths(dst, ids)
	}
	if len(dst) != len(ids) {
		b.Fatalf("%d paths, want %d", len(dst), len(ids))
	}
}

// BenchmarkCompact rewrites one segment's tail, so there is garbage to
// reclaim, then compacts the arena: a copy of the whole live arena.
func BenchmarkCompact(b *testing.B) {
	s := loadedStore()
	tail := []graph.NodeID{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ReplaceTail(SegmentID(i%4096), 2, tail)
		if _, reclaimed := s.Compact(); reclaimed == 0 {
			b.Fatal("Compact reclaimed nothing")
		}
	}
}
